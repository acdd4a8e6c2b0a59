"""Tests for the Brauer-Picard element algebra (both presentations)."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import hopf_helpers as hh
import oracles
from brpickit import brpic as bp
from brpickit import hopf
from brpickit import linalg as la
from brpickit import orth
from brpickit.abelian import FinAbGroup
from brpickit.cyclo import CycloScalar
from brpickit.errors import BrpicError, CapacityError, DomainError, NotInvertibleError

I = CycloScalar.root_of_unity(4)
ZERO = CycloScalar.zero()


def dense_args(mod, dual=True):
    """(exps, root, zero) for the dense references in tests/oracles.py;
    exps(g) acts on V+V* when dual, else on V+V."""
    N = mod.group.exponent

    def exps(g):
        e = la.pair_exponents(mod, hh.pair_coords(g))
        return oracles.vplusvdual_exponents(e, N) if dual else e
    return exps, lambda k: CycloScalar.root_of_unity(N, k), ZERO


def dense_translate(d, x, y):
    """D_x T D_{-y}, by dense matrix products."""
    exps, root, zero = dense_args(d.module)
    return oracles.dense_translate(d.T, exps(x), [-e for e in exps(y)],
                                   root, zero)


def sweedler_module():
    G = FinAbGroup([2])
    return la.GModuleV(G, G.generator(0), [G.character((1,))])


def z2_module_dim2():
    G = FinAbGroup([2])
    chi = G.character((1,))
    return la.GModuleV(G, G.generator(0), [chi, chi])


def z2z2_module(distinct=True):
    G = FinAbGroup([2, 2])
    u = G.element((1, 1))
    if distinct:
        chars = [G.character((1, 0)), G.character((0, 1))]
    else:
        chars = [G.character((1, 0)), G.character((1, 0))]
    return la.GModuleV(G, u, chars)


def z4_module():
    G = FinAbGroup([4])
    return la.GModuleV(G, G.element((2,)), [G.character((1,))])


def gamma_of(G):
    n = G.rank
    rows = []
    for i in range(2 * n):
        r = [0] * (2 * n)
        r[(i + n) % (2 * n)] = 1
        rows.append(r)
    return orth.OrthAut(G, rows)


def sweedler_odatum(a, c, alpha=None):
    mod = sweedler_module()
    if alpha is None:
        alpha = orth.orth_identity(mod.group)
    a = la.sc(a)
    c = la.sc(c)
    return bp.ODatum(mod, [[a, la.sc(0)], [c, a.inv()]], alpha)


def sweedler_rdatum(a, c, alpha=None):
    return bp.odatum_to_rdatum(sweedler_odatum(a, c, alpha))


_MODULE_POOL = None


def module_pool():
    global _MODULE_POOL
    if _MODULE_POOL is None:
        _MODULE_POOL = [sweedler_module(), z2_module_dim2(),
                        z2z2_module(True), z2z2_module(False)]
    return _MODULE_POOL


def random_datum(rng, mod):
    alphas = bp.suite_alphas(mod)
    return bp.random_odatum(mod, rng, alphas[rng.randrange(len(alphas))])


# -- validation -------------------------------------------------------------

def test_identity_rdatum_valid_everywhere():
    for mod in module_pool() + [z4_module()]:
        d = bp.identity_rdatum(mod)
        rep = bp.validate_rdatum(d)
        assert rep["valid"], rep
        assert rep["W_stable_full_U"] and rep["beta_invariant_full_U"]


def test_validate_rdatum_diag_gamma_sweedler():
    mod = sweedler_module()
    gam = gamma_of(mod.group)
    idd = bp.identity_rdatum(mod)
    d = bp.RDatum(mod, idd.W, idd.beta, gam)
    rep = bp.validate_rdatum(d)
    assert rep["valid"], rep
    # (u,1) moves diag(V) to the opposite graph, so full-U stability fails;
    # the diagonal part {(z,z)} only ever scales both legs by the same sign.
    assert rep["W_stable_full_U"] is False
    assert rep["W_stable_full_diagonal"] is True


def test_stability_is_asked_once_per_stable_invariant(monkeypatch):
    """form_invariant_under returns (stable, invariant) and asks each
    question once: W's row terms are built once, and W's stability decided
    once, before the form's question when W is stable.  An unstable W
    reads (False, False), as the two questions asked in turn read it, and
    validate_rdatum's full-U flags are that verdict."""
    mod = sweedler_module()
    idd = bp.identity_rdatum(mod)
    d = bp.RDatum(mod, idd.W, idd.beta, gamma_of(mod.group))
    built, asked = [], []
    row_terms, pairs_satisfy = la.row_terms, la.pairs_satisfy
    monkeypatch.setattr(la, "row_terms",
                        lambda S: built.append(S) or row_terms(S))
    monkeypatch.setattr(la, "pairs_satisfy",
                        lambda *a: asked.append(a) or pairs_satisfy(*a))
    form_terms = la.form_terms(la.support(d.beta.gram), d.W.pivots)
    seen = set()
    for pairs in (orth.stabilizer_generators(d.alpha),
                  orth.u_generators(d.alpha)):
        stable = pairs_satisfy(mod, row_terms(d.W), pairs)
        want = (stable, stable and pairs_satisfy(mod, form_terms, pairs))
        built.clear()
        asked.clear()
        assert la.form_invariant_under(mod, d.beta, pairs) == want
        assert len(built) == 1 and len(asked) == (2 if stable else 1)
        seen.add(stable)
    assert seen == {True, False}
    rep = bp.validate_rdatum(d)
    assert (rep["W_stable_full_U"], rep["beta_invariant_full_U"]) == \
        la.form_invariant_under(mod, d.beta, orth.u_generators(d.alpha))


def test_validate_rdatum_axis_violation():
    mod = sweedler_module()
    W = la.Subspace(2, [[1, 0]])  # = V + 0
    d = bp.RDatum(mod, W, la.zero_form(W), orth.orth_identity(mod.group))
    rep = bp.validate_rdatum(d)
    assert rep["axis_clear"] is False
    assert rep["valid"] is False


def test_validate_odatum_examples():
    mod = sweedler_module()
    gam = gamma_of(mod.group)
    assert bp.validate_odatum(bp.identity_odatum(mod))["valid"]
    for a, c in [(2, 3), (Fraction(3, 2), -2), (I, 1)]:
        for alpha in [orth.orth_identity(mod.group), gam]:
            rep = bp.validate_odatum(sweedler_odatum(a, c, alpha))
            assert rep["valid"], (a, c, rep)
    bad_b = bp.ODatum(mod, [[1, 1], [0, 1]], orth.orth_identity(mod.group))
    rep = bp.validate_odatum(bad_b)
    assert rep["B_zero"] is False and rep["valid"] is False
    bad_d = bp.ODatum(mod, [[2, 0], [0, 1]], orth.orth_identity(mod.group))
    rep = bp.validate_odatum(bad_d)
    assert rep["duality"] is False and rep["valid"] is False
    singular = bp.ODatum(mod, [[0, 0], [0, 1]], orth.orth_identity(mod.group))
    rep = bp.validate_odatum(singular)
    assert rep["B_zero"] is True and rep["invertible"] is False


def test_odatum_gamma_full_equivariance_is_informational():
    # (u,1).T = -T for every Sweedler datum, so the full-U flag is False
    # while the datum is valid for gamma.
    d = sweedler_odatum(2, 3, gamma_of(FinAbGroup([2])))
    rep = bp.validate_odatum(d)
    assert rep["valid"] is True
    assert rep["equivariant_full_U"] is False
    assert rep["equivariant_full_diagonal"] is True


# -- products ---------------------------------------------------------------

def test_rdatum_product_identity_laws():
    rng = random.Random(7)
    for mod in [sweedler_module(), z2z2_module(True)]:
        idd = bp.identity_rdatum(mod)
        d = bp.odatum_to_rdatum(random_datum(rng, mod))
        left = bp.rdatum_product(d, idd)
        right = bp.rdatum_product(idd, d)
        assert left == d and right == d
    idd = bp.identity_rdatum(sweedler_module())
    assert bp.rdatum_product(idd, idd) == idd


def test_sweedler_bullet_value_and_sigma_cross_check():
    a, c, at, ct = 2, 3, 5, 7
    d = sweedler_rdatum(a, c)
    dt = sweedler_rdatum(at, ct)
    prod = bp.rdatum_product(d, dt)
    # composite graph {(a a' v, v)} carries the value a a'^2 c + a' c'
    graph_vec = [la.sc(a * at), la.sc(1)]
    expected = la.sc(a * at * at * c + at * ct)
    assert hh.in_span(prod.W, graph_vec)
    assert prod.W.dim == 1
    assert oracles.form_value(prod.beta, graph_vec, graph_vec, ZERO) == expected
    # sigma route: matrix composition gives the matching datum exactly
    o = bp.odatum_product(sweedler_odatum(a, c), sweedler_odatum(at, ct))
    assert [list(r) for r in o.T] == la.mat(
        [[a * at, 0], [Fraction(at * c * a + ct, a), Fraction(1, a * at)]])
    assert bp.odatum_to_rdatum(o) == prod


def test_odatum_product_and_inverse():
    rng = random.Random(11)
    for mod in [sweedler_module(), z2_module_dim2(), z2z2_module(True)]:
        idd = bp.identity_odatum(mod)
        d = random_datum(rng, mod)
        assert bp.odatum_product(d, idd) == d
        assert bp.odatum_product(idd, d) == d
        inv = bp.odatum_invert(d)
        prod = bp.odatum_product(d, inv)
        ok, _ = bp.odatum_equiv(prod, idd)
        assert ok


def test_group_axioms_smoke():
    rng = random.Random(13)
    for mod in [z2_module_dim2(), z2z2_module(True)]:
        suite = [random_datum(rng, mod) for _ in range(6)]
        idd = bp.identity_odatum(mod)
        for i in range(0, 6, 3):
            d1, d2, d3 = suite[i], suite[i + 1], suite[i + 2]
            left = bp.odatum_product(bp.odatum_product(d1, d2), d3)
            right = bp.odatum_product(d1, bp.odatum_product(d2, d3))
            assert left == right
        for d in suite[:3]:
            ok, _ = bp.odatum_equiv(bp.odatum_product(d, bp.odatum_invert(d)), idd)
            assert ok


def test_products_descend_to_classes():
    rng = random.Random(17)
    mod = z2z2_module(True)
    G = mod.group
    elems = list(G.elements())

    def translate(d):
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        return bp.ODatum(mod, dense_translate(d, x, y), d.alpha)

    for _ in range(4):
        d1, d2 = random_datum(rng, mod), random_datum(rng, mod)
        d1t, d2t = translate(d1), translate(d2)
        assert bp.validate_odatum(d1t)["valid"]
        ok, _ = bp.odatum_equiv(d1, d1t)
        assert ok
        p = bp.odatum_product(d1, d2)
        pt = bp.odatum_product(d1t, d2t)
        ok, _ = bp.odatum_equiv(p, pt)
        assert ok


def test_alpha_lists_are_fresh_copies_of_one_entry():
    # the default bound and an explicit 256 share one memo entry, and a
    # caller mutating a returned list does not reach the next caller
    mod = hh.z4_module()
    for f, memo in ((bp.admissible_alphas, bp._admissible),
                    (bp.suite_alphas, bp._suite)):
        got = f(mod)
        expected = list(got)
        size = memo.cache_info().currsize
        got.clear()
        assert f(mod) == f(mod, 256) == f(mod, bound=256) == expected
        assert memo.cache_info().currsize == size


# -- equivalence ------------------------------------------------------------

def test_rdatum_equiv_basics():
    mod = sweedler_module()
    idd = bp.identity_rdatum(mod)
    ok, witness = bp.rdatum_equiv(idd, idd)
    assert ok and witness == (mod.group.zero(), mod.group.zero())
    # diag(V) ~ {(-v, v)}: the example witness (u, 1) works
    u = mod.group.generator(0)
    W = la.Subspace(2, [[-1, 1]])
    d2 = bp.RDatum(mod, W, la.zero_form(W), orth.orth_identity(mod.group))
    ok, witness = bp.rdatum_equiv(idd, d2)
    assert ok
    exps, root, _ = dense_args(mod, dual=False)
    assert oracles.dense_moved(idd.W, exps((u, mod.group.zero())),
                               root).equals(W)
    # differing alpha is never equivalent
    gam_d = bp.RDatum(mod, idd.W, idd.beta, gamma_of(mod.group))
    assert bp.rdatum_equiv(idd, gam_d) == (False, None)


def test_odatum_equiv_sign_flip():
    mod = sweedler_module()
    d = sweedler_odatum(2, 3)
    neg = bp.ODatum(mod, [[-x for x in row] for row in d.T], d.alpha)
    ok, witness = bp.odatum_equiv(d, neg)
    assert ok
    # the example witness (u, e) flips the sign directly
    u = mod.group.generator(0)
    moved = dense_translate(d, u, mod.group.zero())
    assert moved == [list(r) for r in neg.T]
    gam = gamma_of(mod.group)
    other = sweedler_odatum(2, 3, gam)
    assert bp.odatum_equiv(d, other) == (False, None)


# -- tau and the Lagrangian product ----------------------------------------

def test_tau_identity_datum():
    for mod in [sweedler_module(), z2_module_dim2()]:
        dm = mod.dim
        L = bp.tau(bp.identity_rdatum(mod))
        rows = []
        for i in range(dm):
            r = [0] * (4 * dm)
            r[i] = 1
            r[2 * dm + i] = 1
            rows.append(r)
        for i in range(dm):
            r = [0] * (4 * dm)
            r[dm + i] = 1
            r[3 * dm + i] = 1
            rows.append(r)
        assert L.L.equals(la.Subspace(4 * dm, rows))


def test_tau_dimension_and_injectivity():
    rng = random.Random(19)
    for mod in module_pool():
        d = bp.odatum_to_rdatum(random_datum(rng, mod))
        assert bp.tau(d).L.dim == 2 * mod.dim
    seen = []
    for a, c in [(2, 3), (2, 5), (3, 3), (1, 0)]:
        L = bp.tau(sweedler_rdatum(a, c)).L
        assert all(not L.equals(prev) for prev in seen)
        seen.append(L)


DEGENERATE = (r"^datum is not invertible: the \(w2, f2\) projection is "
              r"degenerate$")


def test_tau_of_degenerate_datum():
    mod = sweedler_module()
    W = la.zero_space(2)
    d = bp.RDatum(mod, W, la.BilinearForm(W, []), orth.orth_identity(mod.group))
    assert bp.validate_rdatum(d)["valid"]
    L = bp.tau(d)
    assert L.L.dim == 2  # all (0, f1, 0, f2)
    with pytest.raises(NotInvertibleError, match=DEGENERATE):
        bp.rdatum_to_odatum(d)
    assert is_invertible(d) is False


def test_lag_product_identity_and_functoriality():
    rng = random.Random(23)
    for mod in [sweedler_module(), z2_module_dim2(), z2z2_module(True)]:
        idd = bp.identity_rdatum(mod)
        d = bp.odatum_to_rdatum(random_datum(rng, mod))
        assert bp.lag_product(bp.tau(idd), bp.tau(d)) == bp.tau(d)
        for _ in range(3):
            a = bp.odatum_to_rdatum(random_datum(rng, mod))
            b = bp.odatum_to_rdatum(random_datum(rng, mod))
            lhs = bp.tau(bp.rdatum_product(a, b))
            rhs = bp.lag_product(bp.tau(a), bp.tau(b))
            assert lhs == rhs


# -- conversions ------------------------------------------------------------

def test_odatum_to_rdatum_examples():
    mod = sweedler_module()
    assert bp.odatum_to_rdatum(bp.identity_odatum(mod)) == bp.identity_rdatum(mod)
    d = sweedler_rdatum(3, 5)
    assert hh.in_span(d.W, [3, 1])
    v = [la.sc(3), la.sc(1)]
    assert oracles.form_value(d.beta, v, v, ZERO) == la.sc(15)
    neg = bp.ODatum(mod, [[-1, 0], [0, -1]], orth.orth_identity(mod.group))
    r = bp.odatum_to_rdatum(neg)
    assert hh.in_span(r.W, [-1, 1])
    assert all(x.is_zero() for row in r.beta.gram for x in row)
    ok, _ = bp.rdatum_equiv(r, bp.identity_rdatum(mod))
    assert ok


def test_odatum_to_rdatum_rejects_asymmetric_form():
    mod = z2_module_dim2()
    # A = Id, C antisymmetric: the induced form cannot be symmetric
    T = [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 1, 1, 0],
         [-1, 0, 0, 1]]
    d = bp.ODatum(mod, T, orth.orth_identity(mod.group))
    assert bp.validate_odatum(d)["valid"]
    with pytest.raises(DomainError, match="outside O"):
        bp.odatum_to_rdatum(d)


def test_rdatum_to_odatum_round_trips():
    mod = sweedler_module()
    back = bp.rdatum_to_odatum(bp.identity_rdatum(mod))
    assert back == bp.identity_odatum(mod)
    o = sweedler_odatum(3, 5)
    assert bp.rdatum_to_odatum(bp.odatum_to_rdatum(o)) == o
    rng = random.Random(29)
    for mod in module_pool():
        for _ in range(3):
            d = random_datum(rng, mod)
            rec = bp.rdatum_to_odatum(bp.odatum_to_rdatum(d))
            ok, _ = bp.odatum_equiv(rec, d)
            assert ok


def is_invertible(d):
    """True iff the RDatum inverts; confirms both products against identity."""
    try:
        o = bp.rdatum_to_odatum(d)
    except NotInvertibleError:
        return False
    inverse = bp.odatum_to_rdatum(bp.odatum_invert(o))
    idd = bp.identity_rdatum(d.module)
    ok1, _ = bp.rdatum_equiv(bp.rdatum_product(d, inverse), idd)
    ok2, _ = bp.rdatum_equiv(bp.rdatum_product(inverse, d), idd)
    if not (ok1 and ok2):
        raise BrpicError(
            "internal invariant violation: constructed inverse does not invert")
    return True


def test_is_invertible():
    rng = random.Random(31)
    mod = z2z2_module(False)
    assert is_invertible(bp.identity_rdatum(mod))
    assert is_invertible(bp.odatum_to_rdatum(random_datum(rng, mod)))
    # a stable 1-dim W inside dim V = 2 is degenerate, hence not invertible
    mod2 = z2_module_dim2()
    W = la.Subspace(4, [[1, 0, 1, 0]])
    d = bp.RDatum(mod2, W, la.BilinearForm(W, [[2]]),
                  orth.orth_identity(mod2.group))
    assert bp.validate_rdatum(d)["valid"]
    with pytest.raises(NotInvertibleError, match=DEGENERATE):
        bp.rdatum_to_odatum(d)
    assert is_invertible(d) is False


# -- description ------------------------------------------------------------

def test_describe_sweedler():
    comps = bp.describe_brpic(sweedler_module())
    assert len(comps) == 2
    mats = {c["alpha"].matrix for c in comps}
    assert mats == {((1, 0), (0, 1)), ((0, 1), (1, 0))}
    for c in comps:
        assert c["A_dim"] == 1
        assert c["C_dim"] == 1
        assert "inverse transpose" in c["D_block"]


def test_describe_z4():
    comps = bp.describe_brpic(z4_module())
    assert len(comps) == 4
    dims = {c["alpha"].matrix: (c["A_dim"], c["C_dim"])
            for c in comps}
    assert dims == {
        ((0, 1), (1, 0)): (1, 0),
        ((0, 3), (3, 0)): (1, 0),
        ((1, 0), (0, 1)): (1, 0),
        ((3, 0), (0, 3)): (1, 1),
    }


def _describe_extra_modules():
    """Modules past the zoo, with dim V 2-4, on which a generic A gives a
    C^t A = A^t C system with many unknowns."""
    specs = [([2], [1], [[1]] * 4),
             ([4], [2], [[1], [3], [1]]),
             ([2, 2], [1, 1], [[1, 0], [0, 1], [1, 0]]),
             ([8], [4], [[1], [3]]),
             ([2, 4], [0, 2], [[0, 1], [1, 1]]),
             ([2, 4], [0, 2], [[0, 1], [0, 3], [1, 1]])]
    out = []
    for factors, u, V in specs:
        G = FinAbGroup(factors)
        out.append((f"{factors} {V}",
                    la.GModuleV(G, G.element(u), [G.character(c) for c in V])))
    return out


def test_describe_dims_match_the_oracle():
    # every zoo module and six larger ones, every admissible alpha, against
    # the count of positions read off the characters and the matrix alone,
    # and C_dim against the kernel of C^t A0 = A0^t C for a generic A0
    seen = set()
    for name, mod in hh.module_zoo() + _describe_extra_modules():
        factors = mod.group.factors
        chars = [chi.exps for chi in mod.chars]
        comps = bp.describe_brpic(mod)
        matrices = [a.matrix for a in orth.enumerate_orth(mod.group)]
        assert [c["alpha"].matrix for c in comps] == \
            oracles.admissible_matrices(factors, mod.u.coords, matrices), name
        for c in comps:
            M = c["alpha"].matrix
            dims = (c["A_dim"], c["C_dim"])
            assert dims == oracles.describe_dims(factors, chars, M), \
                (name, c["alpha"])
            assert c["C_dim"] == oracles.describe_c_kernel_dim(
                factors, chars, M, la.sc), (name, c["alpha"])
            seen.add(dims)
    assert {a for a, _ in seen} >= {1, 2, 4} and {c for _, c in seen} >= {0, 1, 3}


def test_describe_dim_zero():
    """At dim V = 0 the host is kG and BrPic(Rep kG) is all of O(G+G^)
    (Etingof-Nikshych-Ostrik 2010): describe lists every alpha, the V = 0
    data are closed under products and inverses, and each alpha's W = 0
    model is an exact comodule algebra with trivial coinvariants, whose
    cotensor product with the identity's model is the model of the
    product, even where (u, u) lies outside U_alpha."""
    for factors, u in (([2], [1]), ([4], [2]), ([6], [3]), ([8], [4]),
                       ([2, 2], [1, 0]), ([2, 2], [1, 1]), ([2, 4], [0, 2]),
                       ([2, 4], [1, 0]), ([2, 4], [1, 2])):
        G = FinAbGroup(factors)
        mod = la.GModuleV(G, G.element(u), [])
        alphas = orth.enumerate_orth(G)
        comps = bp.describe_brpic(mod)
        assert [c["alpha"] for c in comps] == alphas, (factors, u)
        assert all(c["A_dim"] == 0 and c["C_dim"] == 0 for c in comps)
        data = [bp.ODatum(mod, [], a) for a in alphas]
        ident = bp.identity_rdatum(mod)
        for d in data:
            assert bp.validate_odatum(bp.odatum_invert(d))["valid"], d.alpha
            for dt in data:
                assert bp.validate_odatum(bp.odatum_product(d, dt))["valid"], \
                    (d.alpha, dt.alpha)
            r = bp.odatum_to_rdatum(d)
            rep = hopf.check_comodule_algebra(
                hopf.build_L(mod, r.W, r.beta, r.alpha))
            assert rep["ok"] and rep["coinvariants_dim"] == 1, d.alpha
            assert hopf.verify_cotensor_iso(r, ident)["ok"], d.alpha


def test_describe_reads_s_alpha_only_where_it_counts(monkeypatch):
    """S_alpha's generators are solved once per listed alpha when dim V > 0,
    and not at all at dim V = 0, where describe counts no position."""
    calls = []
    solve = orth.stabilizer_generators
    monkeypatch.setattr(orth, "stabilizer_generators",
                        lambda alpha: calls.append(alpha) or solve(alpha))
    G = FinAbGroup([2, 2])
    comps = bp.describe_brpic(la.GModuleV(G, G.element((1, 1)), []))
    assert len(comps) == 72 and calls == []
    comps = bp.describe_brpic(dict(hh.module_zoo())["Z2Z2_d1"])
    assert calls == [c["alpha"] for c in comps] and calls


def test_describe_capacity():
    with pytest.raises(CapacityError):
        bp.describe_brpic(sweedler_module(), bound=1)


# -- the order-4 family probe ----------------------------------------------

def test_family_order_probe():
    mod = sweedler_module()
    T = [[I, la.sc(0)], [la.sc(1), -I]]
    d = bp.ODatum(mod, T, orth.orth_identity(mod.group))
    assert bp.validate_odatum(d)["valid"]
    sq = bp.odatum_product(d, d)
    minus_id = la.mat([[-1, 0], [0, -1]])
    assert [list(r) for r in sq.T] == minus_id
    # matrix order is 4, class order is 2 (the sign is absorbed by (u, e))
    assert hh.class_order(d) == 2
    fourth = bp.odatum_product(sq, sq)
    assert [list(r) for r in fourth.T] == bp.identity_matrix(2)


# -- random suite hygiene ---------------------------------------------------

def test_random_odatum_always_valid_and_closed():
    rng = random.Random(37)
    for mod in module_pool():
        prev = None
        for _ in range(5):
            d = random_datum(rng, mod)
            rep = bp.validate_odatum(d)
            assert rep["valid"], rep
            assert rep["equivariant_full_diagonal"]
            if prev is not None:
                bp.odatum_product(prev, d)  # must not raise
            prev = d


def test_json_round_trips():
    rng = random.Random(41)
    mod = z2z2_module(True)
    d = random_datum(rng, mod)
    assert bp.ODatum.from_json(mod, d.to_json()) == d
    r = bp.odatum_to_rdatum(d)
    assert bp.RDatum.from_json(mod, r.to_json()) == r


# -- exponent-form checks against the dense reference ----------------------
# Zoo modules with group exponent N in {2, 4, 8}; in Z2Z2_d2 the two
# characters are not +-1 times each other, so (i, j) and (j, i) differ.
_REFERENCE_MODULES = ("Z2_d1", "Z2_d2", "Z4_d1", "Z4_d2", "Z8_d1", "Z2Z4_d1",
                      "Z2Z2_d2")


def _random_T(rng, n, N):
    """A random n x n matrix over Q(zeta_N) with a random support, sparse
    or dense."""
    density = rng.choice((0.25, 0.5, 0.8))

    def entry():
        if rng.random() > density:
            return ZERO
        c = la.sc(rng.choice((-2, -1, 1, 2, 3)))
        return c * CycloScalar.root_of_unity(N, rng.randrange(N))
    return [[entry() for _ in range(n)] for _ in range(n)]


def _reference_data(rng, mod):
    """Valid random data, translates of them, a non-equivariant datum and
    random matrices, each with a random enumerated alpha."""
    n = 2 * mod.dim
    N = mod.group.exponent
    alphas = orth.enumerate_orth(mod.group)
    els = list(mod.group.elements())
    out = []
    for _ in range(3):
        d = random_datum(rng, mod)
        out.append(d)
        out.append(bp.ODatum(mod, dense_translate(d, rng.choice(els),
                                                  rng.choice(els)), d.alpha))
    # an off-diagonal A entry between characters that differ
    chars = mod.chars
    pairs = [(i, j) for i in range(mod.dim) for j in range(mod.dim)
             if chars[i] != chars[j]]
    if pairs:
        i, j = pairs[0]
        T = bp.identity_matrix(n)
        T[i][j] = la.sc(1)
        out.append(bp.ODatum(mod, T, orth.orth_identity(mod.group)))
    for _ in range(6):
        out.append(bp.ODatum(mod, _random_T(rng, n, N), rng.choice(alphas)))
    # the identity plus one off-diagonal entry: a support that is not
    # symmetric
    for _ in range(6):
        T = bp.identity_matrix(n)
        i, j = rng.sample(range(n), 2)
        T[i][j] = la.sc(1)
        out.append(bp.ODatum(mod, T, rng.choice(alphas)))
    return out


def _stabilizer(alpha):
    """S_alpha = {z : alpha_1(z, chi) = z for some chi}, by the oracle, in
    G.elements() order."""
    G = alpha.group
    return [G.element(z)
            for z in oracles.stabilizer_elements(G.factors, alpha.matrix)]


def test_equivariance_flags_match_dense_reference():
    rng = random.Random(43)
    zoo = dict(hh.module_zoo())
    seen = {"equivariant": set(), "equivariant_full_U": set(),
            "equivariant_full_diagonal": set()}
    for name in _REFERENCE_MODULES:
        mod = zoo[name]
        exps, root, zero = dense_args(mod)
        els = list(mod.group.elements())
        for d in _reference_data(rng, mod):
            rep = bp.validate_odatum(d)
            U = orth.u_alpha(d.alpha)
            movers = {
                "equivariant": [(z, z) for z in _stabilizer(d.alpha)],
                "equivariant_full_U": [hh.pair_of(mod.group, e) for e in U.elements],
                "equivariant_full_diagonal": [(z, z) for z in els],
            }
            for flag, pairs in movers.items():
                ref = oracles.dense_moved_to_itself(d.T, pairs, exps, root,
                                                    zero)
                assert rep[flag] is ref, (name, flag, d)
                seen[flag].add(ref)
            assert rep["uu_in_U"] is (mod.u.coords * 2 in U.index)
            assert rep["invertible"] is bp.matrix_is_invertible(
                [list(r) for r in d.T])
    assert all(v == {True, False} for v in seen.values()), seen


def _assert_equiv_gated(equiv, d, dt, found):
    """equiv runs the search on valid data and refuses any other."""
    if bp.binding_report(d)["valid"] and bp.binding_report(dt)["valid"]:
        assert equiv(d, dt) == found
    else:
        with pytest.raises(DomainError, match="not a valid datum; failing"):
            equiv(d, dt)


def test_odatum_equiv_matches_dense_reference():
    rng = random.Random(47)
    zoo = dict(hh.module_zoo())
    outcomes = set()
    for name in _REFERENCE_MODULES:
        mod = zoo[name]
        exps, root, zero = dense_args(mod)
        els = list(mod.group.elements())
        N = mod.group.exponent
        for d in rng.sample(_reference_data(rng, mod), 6):
            T = [list(r) for r in d.T]
            x, y = rng.choice(els), rng.choice(els)
            # each support entry scaled by its own root of unity
            scaled = [[t * root(rng.randrange(N)) for t in row] for row in T]
            # a different support: one entry moved to or from zero
            other = [row[:] for row in T]
            other[0][0] = ZERO if not T[0][0].is_zero() else la.sc(1)
            candidates = [dense_translate(d, x, y), scaled, other,
                          [[-t for t in row] for row in T],
                          [[2 * t for t in row] for row in T]]
            for Tt in candidates:
                dt = bp.ODatum(mod, Tt, d.alpha)
                got = bp._odatum_search(d, dt)
                assert got == oracles.dense_equiv(d.T, dt.T, els, exps, root,
                                                  zero), (name, d, dt)
                _assert_equiv_gated(bp.odatum_equiv, d, dt, got)
                outcomes.add(got[0])
    assert outcomes == {True, False}


def _symmetric_gram(rng, n, N):
    gram = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                gram[i][j] = gram[j][i] = la.sc(rng.choice(
                    (-1, 1, 2))) * CycloScalar.root_of_unity(N, rng.randrange(N))
    return gram


def _reference_rdata(rng, mod):
    """Converted valid data, and graphs {(Av, v)} of sparse random A with
    random symmetric forms and random enumerated alphas: W stable or not,
    beta invariant or not."""
    m = mod.dim
    N = mod.group.exponent
    alphas = orth.enumerate_orth(mod.group)
    out = [bp.odatum_to_rdatum(random_datum(rng, mod)) for _ in range(2)]
    for _ in range(5):
        A = [[la.sc(rng.choice((0, 0, 1, -1, 2))) for _ in range(m)]
             for _ in range(m)]
        W = la.Subspace(2 * m, [[A[i][j] for i in range(m)]
                                + [la.sc(int(i == j)) for i in range(m)]
                                for j in range(m)])
        gram = (_symmetric_gram(rng, m, N) if rng.random() < 0.7
                else [[ZERO] * m for _ in range(m)])
        out.append(bp.RDatum(mod, W, la.BilinearForm(W, gram),
                             rng.choice(alphas)))
    return out


def test_rdatum_flags_match_dense_reference():
    rng = random.Random(53)
    seen = {}
    for _, mod in hh.module_zoo():
        exps, root, zero = dense_args(mod, dual=False)
        for d in _reference_rdata(rng, mod):
            rep = bp.validate_rdatum(d)
            U = orth.u_alpha(d.alpha)
            movers = {
                "": [(z, z) for z in _stabilizer(d.alpha)],
                "_full_U": [hh.pair_of(mod.group, e) for e in U.elements],
            }
            for suffix, pairs in movers.items():
                ref = oracles.dense_invariant(d.W, d.beta.gram,
                                              [exps(g) for g in pairs],
                                              root, zero)
                got = (rep["W_stable" + suffix], rep["beta_invariant" + suffix])
                assert got == ref, (mod, d, suffix)
                seen.setdefault("W_stable" + suffix, set()).add(ref[0])
                seen.setdefault("beta_invariant" + suffix, set()).add(ref[1])
            ref = oracles.dense_stable(
                d.W, [exps((z, z)) for z in mod.group.elements()], root)
            assert rep["W_stable_full_diagonal"] is ref
            seen.setdefault("W_stable_full_diagonal", set()).add(ref)
    assert all(v == {True, False} for v in seen.values()), seen


def test_rdatum_equiv_matches_dense_reference():
    rng = random.Random(59)
    outcomes = []
    for _, mod in hh.module_zoo():
        exps, root, zero = dense_args(mod, dual=False)
        els = list(mod.group.elements())
        pairs = [(x, y) for x in els for y in els]
        N = mod.group.exponent
        for d in _reference_rdata(rng, mod):
            # d carried along a random (x, y): g.W, and the form that
            # carried back along (x, y) gives d's form
            e = exps((rng.choice(els), rng.choice(els)))
            Wt = oracles.dense_moved(d.W, e, root)
            back = oracles.dense_act_matrix([Wt], [-k for k in e], root,
                                            zero, onto=[d.W])
            gram_t = oracles.congruence(back, d.beta.gram, zero)
            # another support: the last row gains a zero entry off the pivots
            rows = [list(r) for r in Wt.basis]
            pivots = {next(j for j, x in enumerate(r) if x) for r in rows}
            free = [j for j in range(2 * mod.dim)
                    if j not in pivots and rows and not rows[-1][j]]
            if free:
                rows[-1][free[0]] = la.sc(1)
            # another form: one diagonal entry doubled, or made nonzero
            bumped = [list(r) for r in gram_t]
            if bumped:
                bumped[0][0] = 2 * bumped[0][0] or la.sc(1)
            scaled = [[x * root(N // 2) for x in r] for r in gram_t]
            # (W', gram', whether d ~ (W', gram'), None where either holds)
            cases = [(Wt, gram_t, True),
                     (la.Subspace(Wt.ambient_dim, rows), gram_t, not free),
                     (Wt, bumped, not bumped), (Wt, scaled, None),
                     (d.W, d.beta.gram, True)]
            for W2, gram2, expected in cases:
                dt = bp.RDatum(mod, W2, la.BilinearForm(W2, gram2), d.alpha)
                got = bp._rdatum_search(d, dt)
                assert got == oracles.dense_translation(
                    d.W, d.beta.gram, dt.W, dt.beta.gram, pairs, exps, root,
                    zero), (mod, d, dt)
                _assert_equiv_gated(bp.rdatum_equiv, d, dt, got)
                assert expected is None or got[0] is expected, (mod, d, dt)
                outcomes.append(got[0])
    assert True in outcomes and False in outcomes


def _scaled_entries(rng, T, root, N):
    """T with one support entry at a time scaled by a random root of
    unity other than 1."""
    out = []
    for i, j in la.support(T):
        T2 = [list(r) for r in T]
        T2[i][j] = T2[i][j] * root(rng.randrange(1, N))
        out.append(T2)
    return out


def test_equivalence_witness_matches_the_dense_search():
    # the first solution of the terms' congruences (abelian.solve) against
    # the x-outer dense search on every zoo module: per suite alpha (at
    # most 8, spread out), a datum and its relation datum against a
    # translate, the translate with one support entry scaled by a root of
    # unity, and single-entry mutants; found and failing searches both
    rng = random.Random(61)
    outcomes = set()
    for name, mod in hh.module_zoo():
        els = list(mod.group.elements())
        pairs = [(x, y) for x in els for y in els]
        N = mod.group.exponent
        exps, root, zero = dense_args(mod)
        rexps = dense_args(mod, dual=False)[0]
        suite = bp.suite_alphas(mod)
        for alpha in suite[::len(suite) // 8 + 1]:
            d = bp.random_odatum(mod, rng, alpha)
            Tt = dense_translate(d, rng.choice(els), rng.choice(els))
            for T2 in ([Tt] + _scaled_entries(rng, Tt, root, N)
                       + [m.T for _, m in _single_entry_mutants(d)]):
                got = bp._odatum_search(d, bp.ODatum(mod, T2, alpha))
                assert got == oracles.dense_equiv(d.T, T2, els, exps, root,
                                                  zero), (name, d, T2)
                outcomes.add(("T", got[0]))
            r = bp.odatum_to_rdatum(d)
            rt = bp.odatum_to_rdatum(bp.ODatum(mod, Tt, alpha))
            targets = [rt] + [m for _, m in _single_entry_mutants(rt)]
            targets += [bp.RDatum(mod, rt.W, la.BilinearForm(rt.W, g), alpha)
                        for g in _scaled_entries(rng, rt.beta.gram, root, N)]
            for r2 in targets:
                got = bp._rdatum_search(r, r2)
                assert got == oracles.dense_translation(
                    r.W, r.beta.gram, r2.W, r2.beta.gram, pairs, rexps, root,
                    zero), (name, r, r2)
                outcomes.add(("W", got[0]))
    assert outcomes == {("T", True), ("T", False), ("W", True), ("W", False)}


def test_equivalence_solves_each_distinct_congruence_once(monkeypatch):
    """The seed-3 Z2 x Z2 datum, as a matrix datum and converted to a
    relation datum, checked against itself: its six support terms are two
    congruences once reduced mod N and taken up to sign, so abelian.solve
    gets two rows, and the witness is still (0, 0)."""
    mod = z2z2_module()
    d = bp.random_odatum(mod, random.Random(3))
    got = []
    solve = bp.ab.solve
    monkeypatch.setattr(bp.ab, "solve",
                        lambda fs, rows: got.append(rows) or solve(fs, rows))
    m = mod.dim
    terms = [bp._entry_term(m, i, j) for i, j in la.support(d.T)]
    assert len(terms) == 6
    zero = (mod.group.zero(), mod.group.zero())
    assert bp.odatum_equiv(d, d) == (True, zero)
    r = bp.odatum_to_rdatum(d)
    assert bp.rdatum_equiv(r, r) == (True, zero)
    assert [len(rows) for rows in got] == [2, 2]
    assert got[0] == [((0, 1, 0, 1), 0, 2), ((1, 0, 1, 0), 0, 2)]


# -- the generator rule against the full pair lists ---------------------------
# A k = 0 question holds on a subgroup of G x G exactly when it holds on the
# subgroup's generators (linalg.pairs_satisfy).  The flags, describe and
# random_odatum ask S_alpha, U_alpha and the diagonal of G on generators;
# here each question is asked again on every element.

def _full_lists(mod, alpha):
    return {"": [z.coords * 2 for z in _stabilizer(alpha)],
            "_full_U": [e.coords for e in orth.u_alpha(alpha).elements],
            "_full_diagonal": [g.coords * 2 for g in mod.group.elements()]}


def _generator_lists(mod, alpha):
    return {"": orth.stabilizer_generators(alpha),
            "_full_U": orth.u_generators(alpha),
            "_full_diagonal": bp._diagonal_generators(mod.group)}


def _flags_on(d, lists):
    """The G x G flags of a report on d, each asked on lists[suffix]."""
    mod = d.module
    if isinstance(d, bp.ODatum):
        terms = [bp._entry_term(mod.dim, i, j) for i, j in la.support(d.T)]
        return {"equivariant" + sfx: la.pairs_satisfy(mod, terms, pairs)
                for sfx, pairs in lists.items()}
    rows = la.row_terms(d.W)
    form = la.form_terms(la.support(d.beta.gram), d.W.pivots)
    out = {}
    for sfx, pairs in lists.items():
        stable = out["W_stable" + sfx] = la.pairs_satisfy(mod, rows, pairs)
        if sfx != "_full_diagonal":
            out["beta_invariant" + sfx] = (
                stable and la.pairs_satisfy(mod, form, pairs))
    return out


def _single_entry_mutants(d):
    """(key, mutant) for d with one entry added: a zero entry (i, j) of T
    set to 1; or a zero entry ("W", i, j) of a reduced row of W off the
    pivots set to 1, which moves the row off its eigenspace wherever the
    exponents there differ; or a gram entry ("gram", i, j) and its mirror
    raised by 1."""
    one = la.sc(1)
    if isinstance(d, bp.ODatum):
        out = []
        for i, j in itertools.product(range(len(d.T)), repeat=2):
            if d.T[i][j].is_zero():
                T = [list(r) for r in d.T]
                T[i][j] = one
                out.append(((i, j), bp.ODatum(d.module, T, d.alpha)))
        return out
    out = []
    for i, row in enumerate(d.W.basis):
        for j, x in enumerate(row):
            if j not in d.W.pivots and x.is_zero():
                rows = [list(r) for r in d.W.basis]
                rows[i][j] = one
                W = la.Subspace(d.W.ambient_dim, rows)
                out.append((("W", i, j), bp.RDatum(
                    d.module, W, la.BilinearForm(W, d.beta.gram), d.alpha)))
    for i, j in itertools.combinations_with_replacement(range(d.W.dim), 2):
        gram = [list(r) for r in d.beta.gram]
        gram[i][j] = gram[j][i] = gram[i][j] + one
        out.append((("gram", i, j), bp.RDatum(
            d.module, d.W, la.BilinearForm(d.W, gram), d.alpha)))
    return out


def test_generator_rule_matches_full_pair_lists():
    rng = random.Random(67)
    seen = {}
    dropped_disagrees = {"": False, "_full_U": False, "_full_diagonal": False}
    for name, mod in hh.module_zoo():
        dm = mod.dim
        G = mod.group
        diag = bp._diagonal_generators(G)
        full_diag = [g.coords * 2 for g in G.elements()]
        # random_odatum's triv question, and the support of its M = A^t C
        for i, j in itertools.product(range(dm), repeat=2):
            term = [bp._entry_term(dm, dm + i, j)]
            assert la.pairs_satisfy(mod, term, diag) is \
                la.pairs_satisfy(mod, term, full_diag)
        for comp in bp.describe_brpic(mod):
            S = _full_lists(mod, comp["alpha"])[""]

            def kept(i, j):
                return la.pairs_satisfy(mod, [bp._entry_term(dm, i, j)], S)
            assert comp["A_dim"] == sum(
                kept(i, j) for i, j in itertools.product(range(dm), repeat=2))
            assert comp["C_dim"] == sum(
                kept(dm + i, j) for i, j in
                itertools.combinations_with_replacement(range(dm), 2))
        for alpha in bp.suite_alphas(mod):
            full = _full_lists(mod, alpha)
            gens = _generator_lists(mod, alpha)
            d = bp.random_odatum(mod, rng, alpha)
            M = la.product(la.transpose(d.block_A()), d.block_C())
            assert all(la.pairs_satisfy(
                mod, [bp._entry_term(dm, dm + i, j)], full_diag)
                for i, j in la.support(M)), (name, d)
            data = [d, bp.odatum_to_rdatum(d),
                    hopf.random_graph_datum(mod, rng, alpha)]
            for case in data + [m for x in data
                                for _, m in _single_entry_mutants(x)]:
                rep = (bp.validate_odatum(case) if isinstance(case, bp.ODatum)
                       else bp.validate_rdatum(case))
                want = _flags_on(case, full)
                assert {k: rep[k] for k in want} == want, (name, case)
                for flag, v in want.items():
                    seen.setdefault(flag, set()).add(v)
                for sfx in dropped_disagrees:
                    fewer = dict(gens, **{sfx: gens[sfx][:-1]})
                    if _flags_on(case, fewer) != want:
                        dropped_disagrees[sfx] = True
    assert len(seen) == 8, seen
    assert all(v == {True, False} for v in seen.values()), seen
    assert all(dropped_disagrees.values()), dropped_disagrees


def _golden_records():
    """Every G x G answer the package reports, as JSON lines: over every zoo
    module, describe's dimensions, and per suite alpha a seeded datum, its
    conversion, a graph datum and their single-entry mutants with their
    reports and equivalence searches, a translate of the datum with both
    searches, then 20 compatible data with mutated grams and with all of
    G x G as F, their violations and actions(); then the rng state."""
    rng = random.Random(20261019)
    out = []

    def rec(*items):
        out.append(json.dumps(items, default=repr, sort_keys=True))

    def report(tag, d):
        try:
            r = (bp.validate_odatum(d) if isinstance(d, bp.ODatum)
                 else bp.validate_rdatum(d))
            rec(tag, sorted(r.items()))
        except BrpicError as e:
            rec(tag, "error", type(e).__name__, str(e))

    def convert(tag, d):
        try:
            r = bp.odatum_to_rdatum(d)
        except BrpicError as e:
            rec(tag, "error", type(e).__name__, str(e))
            return None
        rec(tag, r.to_json())
        return r

    for name, mod in hh.module_zoo():
        els = list(mod.group.elements())
        for c in bp.describe_brpic(mod):
            rec(name, "describe", c["alpha"].matrix, c["A_dim"], c["C_dim"])
        prev = None
        for ai, alpha in enumerate(bp.suite_alphas(mod)):
            d = bp.random_odatum(mod, rng, alpha)
            tag = (name, ai)
            rec(tag, "T", [[x.to_string() for x in r] for r in d.T])
            report((tag, "o"), d)
            r = convert((tag, "conv"), d)
            if r is not None:
                report((tag, "r"), r)
                for key, mt in _single_entry_mutants(r):
                    report((tag, "rmut", key), mt)
                    rec(tag, "rsearch-mut", key, bp._rdatum_search(r, mt))
            for key, mt in _single_entry_mutants(d):
                report((tag, "omut", key), mt)
                rec(tag, "osearch-mut", key, bp._odatum_search(d, mt))
                convert((tag, "omut-conv", key), mt)
            x, y = rng.choice(els), rng.choice(els)
            dt = bp.ODatum(mod, dense_translate(d, x, y), alpha)
            rec(tag, "osearch", x.coords, y.coords, bp._odatum_search(d, dt))
            rec(tag, "oequiv", bp.odatum_equiv(d, dt))
            rt = convert((tag, "conv-t"), dt)
            if r is not None and rt is not None:
                rec(tag, "rsearch", bp._rdatum_search(r, rt))
                rec(tag, "requiv", bp.rdatum_equiv(r, rt))
            if prev is not None and prev.alpha == d.alpha:
                rec(tag, "osearch-prev", bp._odatum_search(prev, d))
            prev = d
            g = hopf.random_graph_datum(mod, rng, alpha)
            rec(tag, "graph", g.to_json())
            report((tag, "g"), g)
            for key, mt in _single_entry_mutants(g):
                report((tag, "gmut", key), mt)
        whole = [a.coords + b.coords for a in els for b in els]
        for k in range(20):
            data = hopf.random_compatible_data(mod, rng)
            tag = (name, "cd", k)
            rec(tag, repr(data), hopf.compatible_violations(data),
                [(list(e), list(st)) for e, st in data.actions()])
            for i in range(len(data.rows)):
                gram = [list(rw) for rw in data.gram]
                gram[i][i] = gram[i][i] + la.sc(1)
                md = hopf.CompatibleData(mod, data.W1, data.W2, data.W3, gram,
                                         data.F, data.psi)
                rec(tag, "gmut", i, hopf.compatible_violations(md))
            md = hopf.CompatibleData(mod, data.W1, data.W2, data.W3,
                                     data.gram, whole)
            rec(tag, "whole", hopf.compatible_violations(md),
                [(list(e), list(st)) for e, st in md.actions()])
    rec("rng", hashlib.sha256(repr(rng.getstate()).encode()).hexdigest())
    return out


def test_gxg_reports_golden():
    # recorded before the G x G questions moved onto linalg's engine and
    # the generator rule, and re-recorded when scalars began to print at
    # their least conductor (the old records with every scalar string read
    # back and printed again); seeded data alone never fail W_stable or
    # equivariant, so the mutants carry the False answers
    records = _golden_records()
    assert len(records) == 4875
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == \
        "53fc246f53cb14db4656a16fe10e5996bfc7dcf28992ef4676ccedf1ac6f8dee"


def test_diagonal_stabilizer_matches_u_alpha():
    # S_alpha's generators, z in S_alpha and |U_alpha|, all read from
    # kernels of alpha's matrix, against the oracle's S_alpha, its
    # character exponents and the image of x -> (alpha_1(x), g_x), for
    # every alpha of each zoo group; module.u in S_alpha decides
    # admissibility
    counts = {}
    for name, mod in hh.module_zoo():
        G = mod.group
        fs, n = G.factors, G.rank
        els = [z.coords for z in G.elements()]
        chars = [chi.exps for chi in mod.chars]
        alphas = orth.enumerate_orth(G)
        for a in alphas:
            gens = orth.stabilizer_generators(a)
            assert all(g[:n] == g[n:] for g in gens), (name, a)
            S = sorted({g[:n] for g in oracles.span(gens, fs * 2)})
            assert S == oracles.stabilizer_elements(fs, a.matrix), (name, a)
            e, N = oracles._stabilizer_exponents(fs, chars, a.matrix)
            assert e == [[_exponent(chi, z, fs, N) for chi in chars]
                         for z in S], (name, a)
            assert [z for z in els if orth.in_stabilizer(a, z)] == S, (name, a)
            image = {oracles.apply_matrix(fs, a.matrix, x)[:n] + x[:n]
                     for x in itertools.product(*(range(f) for f in fs * 2))}
            assert orth.u_order(a) == len(image), (name, a)
        admissible = bp.admissible_alphas(mod)
        assert [a.matrix for a in admissible] == oracles.admissible_matrices(
            fs, mod.u.coords, [a.matrix for a in alphas])
        counts[name] = (len(admissible), len(alphas))
    assert counts["Z2Z2_d1"] == counts["Z2Z2_d2"] == (48, 72)
    assert counts["Z2Z4_d1"] == (128, 128)


def _exponent(chi, z, factors, N):
    """The exponent of chi(z) in zeta_N, for coordinate tuples."""
    return sum(c * g * (N // f) for c, g, f in zip(chi, z, factors)) % N


def test_alpha_lists_match_the_matrix_oracles():
    # admissible: (u, u) in U_alpha read off the matrices; suite: the greedy
    # closure composing matrices, as the suite did before it composed
    # position tables.  Both in enumeration order.
    sizes = {}
    for name, mod in hh.module_zoo():
        factors = mod.group.factors
        matrices = [a.matrix for a in orth.enumerate_orth(mod.group)]
        admissible = oracles.admissible_matrices(factors, mod.u.coords, matrices)
        suite = oracles.greedy_suite(factors, admissible)
        assert [a.matrix for a in bp.admissible_alphas(mod)] == admissible, name
        assert [a.matrix for a in bp.suite_alphas(mod)] == suite, name
        sizes[name] = (len(suite), len(admissible))
    assert sizes["Z2Z2_d1"] == sizes["Z2Z2_d2"] == (12, 48)
    assert sizes["Z2Z4_d1"] == (128, 128) and sizes["Z8_d1"] == (8, 8)


def test_cold_suite_composes_no_homs(monkeypatch):
    # the closure composes the alphas' matrices without building an
    # OrthAut, so a cold suite builds the enumerated alphas and the
    # identity, and no other; each product it forms is the oracle's
    # composed matrix
    zoo = dict(hh.module_zoo())
    built, products = [], []
    init, compose = orth.OrthAut.__init__, orth.compose_matrices

    def recorded(self, group, matrix):
        init(self, group, matrix)
        built.append(self.matrix)

    def recorded_compose(G, a, b):
        products.append((G, a, b, compose(G, a, b)))
        return products[-1][-1]

    for name, size in (("Z2Z2_d2", 12), ("Z2Z4_d1", 128)):
        group = zoo[name].group
        enumerated = {a.matrix for a in orth.enumerate_orth(group)}
        for memo in (bp._suite, bp._admissible, orth.orth_identity):
            memo.cache_clear()
        built.clear()
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(orth.OrthAut, "__init__", recorded)
            m.setattr(orth, "compose_matrices", recorded_compose)
            assert len(bp.suite_alphas(zoo[name])) == size
        assert len(built) == len(enumerated) + 1, name
        assert set(built) == enumerated, name
        assert products, name
        for G, a, b, product in products[::7]:
            assert product == oracles.compose_matrices(G.factors, a, b)


# -- binding checks: cached per datum, still run on every output -----------

def _inadmissible_alpha(mod):
    admissible = bp.admissible_alphas(mod)
    return next(a for a in orth.enumerate_orth(mod.group)
                if a not in admissible)


def test_products_still_check_their_output(monkeypatch):
    rng = random.Random(53)
    mod = z2z2_module(True)
    d1, d2 = random_datum(rng, mod), random_datum(rng, mod)
    r1, r2 = bp.odatum_to_rdatum(d1), bp.odatum_to_rdatum(d2)
    bad = _inadmissible_alpha(mod)
    monkeypatch.setattr(orth, "orth_compose", lambda a, b: bad)
    with pytest.raises(BrpicError, match="product datum fails"):
        bp.odatum_product(d1, d2)
    with pytest.raises(BrpicError, match="product datum fails"):
        bp.rdatum_product(r1, r2)
    monkeypatch.setattr(orth, "orth_invert", lambda a: bad)
    with pytest.raises(BrpicError, match="inverse datum fails"):
        bp.odatum_invert(d1)


def test_invalid_factor_still_refused():
    mod = z2z2_module(True)
    T = bp.identity_matrix(2 * mod.dim)
    bad = bp.ODatum(mod, T, _inadmissible_alpha(mod))
    with pytest.raises(DomainError, match=r"failing: \['uu_in_U'\]"):
        bp.odatum_product(bad, bp.identity_odatum(mod))
    # the cached verdict refuses it again, as the left factor now
    with pytest.raises(DomainError, match="right factor"):
        bp.odatum_product(bp.identity_odatum(mod), bad)


def test_binding_check_runs_once_per_datum(monkeypatch):
    rng = random.Random(59)
    mod = z2z2_module(True)
    for kind in ("odatum", "rdatum"):
        name = f"_{kind}_conditions"
        checked = []
        original = getattr(bp, name)
        monkeypatch.setattr(bp, name, lambda d, f=original, log=checked:
                            log.append(d) or f(d))
        data = [random_datum(rng, mod) for _ in range(2)]
        if kind == "odatum":
            product, report = bp.odatum_product, bp.validate_odatum
        else:
            data = [bp.odatum_to_rdatum(d) for d in data]
            product, report = bp.rdatum_product, bp.validate_rdatum
        p = product(data[0], data[1])
        # products reused as factors, next to a factor used before
        q = product(p, data[0])
        r = product(q, p)
        assert report(r)["valid"]
        for x in (*data, p, q, r):
            assert sum(c is x for c in checked) == 1, (kind, x)
        assert len(checked) == 5
    monkeypatch.undo()

    # a datum's inverse, relation form and tau, kept beside its verdict:
    # computed once per datum object, equal to the value an equal copy
    # computes for itself, and never kept when the computation raises
    def copy(x):
        return type(x).from_json(x.module, x.to_json())

    def as_json(v):
        return (v.to_json() if not isinstance(v, bp.LagDatum)
                else {"L": v.L.to_json(), "alpha": v.alpha.to_json()})

    d = random_datum(rng, mod)
    r = bp.odatum_to_rdatum(copy(d))
    bad_alpha = _inadmissible_alpha(mod)
    bad_o = bp.ODatum(mod, bp.identity_matrix(2 * mod.dim), bad_alpha)
    ident = bp.identity_rdatum(mod)
    bad_r = bp.RDatum(mod, ident.W, ident.beta, bad_alpha)
    for fn, name, x, bad in ((bp.odatum_invert, "_invert", d, bad_o),
                             (bp.odatum_to_rdatum, "_to_relation", d, bad_o),
                             (bp.tau, "_tau", r, bad_r)):
        computed = []
        original = getattr(bp, name)
        monkeypatch.setattr(bp, name, lambda y, f=original, log=computed:
                            log.append(y) or f(y))
        first = fn(x)
        assert fn(x) is first, name
        y = copy(x)
        again = fn(y)
        assert again is not first and fn(y) is again, name
        assert again == first and as_json(again) == as_json(first), name
        for _ in range(2):
            with pytest.raises(DomainError, match=r"failing: \['uu_in_U'\]"):
                fn(bad)
        assert [sum(c is z for c in computed) for z in (x, y, bad)] == \
            [1, 1, 2], name


# -- the inverse: one elimination of [M | I] ---------------------------------

def _random_qi_matrix(rng, n):
    """Entries 0@1, rationals and Gaussian rationals, so that conductors
    from mixed arithmetic show up in the inverse."""
    def entry():
        c = la.sc(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
        if rng.random() < 0.5:
            c = c + la.sc(rng.randrange(-2, 3)) * I
        return ZERO if rng.random() < 0.3 else c
    return [[entry() for _ in range(n)] for _ in range(n)]


def _json(M):
    return [[x.to_string() for x in r] for r in M]


def test_matrix_inverse_matches_solves():
    rng = random.Random(61)
    one = CycloScalar.one()
    seen = set()
    tested = 0
    while tested < 20:
        n = rng.randrange(1, 5)
        M = _random_qi_matrix(rng, n)
        if la.rank(M) < n:
            continue
        tested += 1
        Mi = bp.matrix_inverse(M)
        assert la.product(M, Mi) == bp.identity_matrix(n)
        assert la.product(Mi, M) == bp.identity_matrix(n)
        # entry for entry, as printed
        assert _json(Mi) == _json(oracles.inverse_by_solves(M, one, ZERO))
        # no printed entry has a conductor above its least
        assert all(x.N == oracles.least_conductor(x.N, x.coeffs)
                   for r in Mi for x in r)
        seen.update(x.to_string() for r in Mi for x in r)
    assert "0@1" in seen and any(t.endswith("@4") for t in seen)
    assert bp.matrix_inverse([]) == []


def test_matrix_inverse_singular():
    rng = random.Random(67)
    zero_col = [[1, 0], [I, 0]]
    dependent = [[1, I, 2], [0, 1, 1], [2, 3 * I, 4 + I]]  # 2 r1 + i r2
    for M in (zero_col, dependent, [[0]], [[ZERO, ZERO], [ZERO, ZERO]]):
        M = la.mat(M)
        n = len(M)
        # the rref of [M | I] goes on to find pivots past column n
        _, pivots = la.rref([list(r) + e for r, e in
                             zip(M, bp.identity_matrix(n))])
        assert len(pivots) == n and pivots[-1] >= n
        with pytest.raises(NotInvertibleError):
            bp.matrix_inverse(M)
    for _ in range(5):
        M = _random_qi_matrix(rng, 3)
        c = la.sc(rng.randrange(1, 4)) * I
        M[2] = [x + c * y for x, y in zip(M[0], M[1])]
        with pytest.raises(NotInvertibleError):
            bp.matrix_inverse(M)


# -- no repeated work in products and conversions ----------------------------

def test_rdatum_product_composes_once(monkeypatch):
    rng = random.Random(71)
    calls = []
    original = la._compose_with_lift
    monkeypatch.setattr(la, "_compose_with_lift",
                        lambda W, Wt: calls.append(1) or original(W, Wt))
    for mod in (sweedler_module(), z2z2_module(True), z4_module()):
        d, dt = (bp.odatum_to_rdatum(random_datum(rng, mod)) for _ in "ab")
        calls.clear()
        p = bp.rdatum_product(d, dt)
        assert len(calls) == 1
        assert p.W == la.relation_compose(d.W, dt.W)


def test_random_odatum_retries_singular_draws():
    """The A block is the first invertible draw, as with a rank test."""
    mod = z2_module_dim2()
    alpha = orth.orth_identity(mod.group)
    retried = 0
    for seed in range(40):
        ref = random.Random(seed)
        while True:
            A = [[la.sc(ref.randint(-3, 3)) for _ in range(2)]
                 for _ in range(2)]
            for i in range(2):
                if A[i][i].is_zero():
                    A[i][i] = la.sc(ref.choice((-3, -2, -1, 1, 2, 3)))
            if la.rank(A) == 2:
                break
            retried += 1
        d = bp.random_odatum(mod, random.Random(seed), alpha)
        assert d.block_A() == A
        assert bp.validate_odatum(d)["valid"]
    assert retried > 0


# -- composition against the intersection reference ---------------------------

def _cyclic_module(N, exps):
    G = FinAbGroup([N])
    return la.GModuleV(G, G.element((N // 2,)),
                       [G.character((e,)) for e in exps])


def _compose_reference(W, Wt):
    return oracles.compose_by_intersection(W, Wt, hh.kernel, ZERO,
                                           CycloScalar.one())[0]


def _bullet_reference(W, beta, Wt, betat):
    return oracles.bullet_by_intersection(W, beta, Wt, betat, hh.kernel,
                                          ZERO, CycloScalar.one())


def _composition_outputs(data):
    """to_json text of the products of neighbours, of a product with the
    next datum, and of the Lagrangian products of neighbours, or the error
    each one ends in."""
    def text(f):
        try:
            return repr(f().to_json())
        except (BrpicError, DomainError, ValueError) as e:
            return "error: " + str(e)
    out = []
    for a, b, c in zip(data, data[1:], data[2:]):
        out.append(text(lambda: bp.rdatum_product(a, b)))
        out.append(text(lambda: bp.rdatum_product(bp.rdatum_product(a, b), c)))
        out.append(text(lambda: bp.lag_product(bp.tau(a), bp.tau(b)).L))
    return out


def test_composition_matches_intersection_reference(monkeypatch):
    # Every zoo module plus Z6 and Z8 ones.  Data are translated by
    # D_x T D_y^-1, which puts zeta entries of conductor N next to the
    # conductor-1 entries of the untranslated data and the identity; the
    # reference is the intersection algorithm the composition replaced, and
    # the printed text, conductors included, must not move.
    rng = random.Random(73)
    modules = [mod for _, mod in hh.module_zoo()]
    modules += [_cyclic_module(6, (1, 5)), _cyclic_module(8, (1, 3))]
    with_zeta = 0
    for mod in modules:
        els = list(mod.group.elements())
        data = [bp.identity_rdatum(mod)]
        for _ in range(4):
            d = random_datum(rng, mod)
            data.append(bp.odatum_to_rdatum(d))
            moved = dense_translate(d, rng.choice(els), rng.choice(els))
            data.append(bp.odatum_to_rdatum(bp.ODatum(mod, moved, d.alpha)))
        rng.shuffle(data)
        got = _composition_outputs(data)
        with monkeypatch.context() as m:
            m.setattr(la, "relation_compose", _compose_reference)
            m.setattr(la, "bullet_form", _bullet_reference)
            expected = _composition_outputs(data)
        assert got == expected
        assert not any(t.startswith("error") for t in got)
        with_zeta += sum("*z" in t for t in got)
    assert with_zeta > 0
