"""Tests for O(G+G^), U_alpha, and psi_alpha against brute-force oracles."""

import hashlib
import itertools
import random
from math import gcd, prod
from operator import mul

import pytest

import oracles
from brpickit import abelian as ab
from brpickit import orth
from brpickit.abelian import FinAbGroup
from brpickit.cyclo import CycloScalar
from brpickit.errors import CapacityError, DomainError

Z2 = FinAbGroup([2])
Z3 = FinAbGroup([3])
Z4 = FinAbGroup([4])
Z2xZ2 = FinAbGroup([2, 2])

# sizes frozen from tests/oracles.py runs (brute force over all matrices)
FROZEN_COUNTS = {(2,): 2, (3,): 4, (4,): 4, (5,): 8, (7,): 12, (2, 2): 72}


def _swap_matrix(n):
    # gamma: (g, chi) -> (chi-as-group, g-as-char) coordinatewise
    rows = []
    for i in range(2 * n):
        r = [0] * (2 * n)
        r[(i + n) % (2 * n)] = 1
        rows.append(r)
    return rows


def _identity_matrix(D):
    return [list(D.generator(i).coords) for i in range(D.rank)]


def test_enumerate_matches_brute_force_oracle():
    for factors, expected in FROZEN_COUNTS.items():
        G = FinAbGroup(factors)
        enumerated = orth.enumerate_orth(G)
        assert len(enumerated) == expected, f"size mismatch for {factors}"
        oracle = {tuple(tuple(r) for r in M)
                  for M in oracles.orth_brute_force(list(factors))}
        ours = {a.matrix for a in enumerated}
        assert ours == oracle, f"matrix set mismatch for {factors}"


def test_z2_is_exactly_id_and_gamma():
    auts = orth.enumerate_orth(Z2)
    matrices = {a.matrix for a in auts}
    assert matrices == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def _orthogonal(G, rows):
    """The verdict of the orthogonality test that OrthAut runs."""
    try:
        orth.OrthAut(G, rows)
    except DomainError:
        return False
    return True


def test_gamma_is_orthogonal_swap():
    for G in [Z2, Z3, Z4]:
        assert _orthogonal(G, _swap_matrix(G.rank))


def test_chi_squared_on_z3_not_orthogonal():
    h = [[1, 0], [0, 2]]  # (g, chi) -> (g, chi^2)
    assert oracles.is_bijective(orth.dsum_group(Z3).factors, h)
    assert not _orthogonal(Z3, h)


def test_non_abelian_for_p_5_and_7():
    for p in [5, 7]:
        auts = orth.enumerate_orth(FinAbGroup([p]))
        assert any(orth.orth_compose(a, b) != orth.orth_compose(b, a)
                   for a, b in itertools.combinations(auts, 2))
    # p = 3 gives the Klein four-group (abelian)
    auts3 = orth.enumerate_orth(Z3)
    assert all(orth.orth_compose(a, b) == orth.orth_compose(b, a)
               for a, b in itertools.combinations(auts3, 2))


def test_group_axioms_closure_exhaustive():
    for G in [Z2, Z3, Z4, Z2xZ2]:
        auts = orth.enumerate_orth(G)
        aset = set(auts)
        assert orth.orth_identity(G) in aset
        for a in auts:
            assert orth.orth_invert(a) in aset
            assert orth.orth_compose(a, orth.orth_invert(a)) == orth.orth_identity(G)
        for a, b in itertools.product(auts, repeat=2):
            assert orth.orth_compose(a, b) in aset


def test_matrix_order_compatibility_enforced():
    # G+G^ of Z2 x Z4 has factors (2, 4, 2, 4): the first generator has
    # order 2 and may not go to the second, of order 4
    G = FinAbGroup([2, 4])
    ident = _identity_matrix(orth.dsum_group(G))
    with pytest.raises(DomainError, match="^generator of order 2 maps to an "
                       "element whose order does not divide it$"):
        orth.OrthAut(G, [ident[1]] + ident[1:])


# orth_compose and orth_invert are memos keyed by every operand's value.
# For a fixed a, orth_compose(a, b) runs over every b, so a memo keyed on
# a alone returns a stale product.
def test_alpha_memos_match_the_unmemoized_functions():
    for G in (Z2, Z4, Z2xZ2):
        auts = orth.enumerate_orth(G)
        for a in auts:
            assert orth.orth_invert(a) == orth.orth_invert.__wrapped__(a)
            for b in auts:
                assert (orth.orth_compose(a, b)
                        == orth.orth_compose.__wrapped__(a, b)), (a, b)


def test_alpha_memos_raise_on_every_call():
    a, b = orth.orth_identity(Z2), orth.orth_identity(Z4)
    # |G+G^| = 2^22 is far over the enumeration's cap, and the matrix alone
    # composes and inverts the Z2^11 swap: it is its own inverse
    G = FinAbGroup([2] * 11)
    swap = orth.OrthAut(G, _swap_matrix(11))
    for _ in range(3):
        with pytest.raises(DomainError, match="different groups"):
            orth.orth_compose(a, b)
        with pytest.raises(DomainError, match="different groups"):
            orth.orth_compose(b, a)
        with pytest.raises(DomainError, match="different groups"):
            orth.orth_compose(swap, a)
        assert orth.orth_invert(swap) == swap
        assert orth.orth_compose(swap, swap) == orth.orth_identity(G)


def _record_leaves(monkeypatch):
    """The matrix of every OrthAut built, in order: enumerate_orth builds
    one per leaf of its search."""
    leaves = []
    init = orth.OrthAut.__init__

    def recorded(self, group, matrix):
        init(self, group, matrix)
        leaves.append(self.matrix)

    monkeypatch.setattr(orth.OrthAut, "__init__", recorded)
    return leaves


def test_enumeration_capacity_bound(monkeypatch):
    with pytest.raises(CapacityError, match="256"):
        orth.enumerate_orth(FinAbGroup([3, 3, 3]))
    # overriding the bound lets it through the size gate
    assert len(orth.enumerate_orth(Z2, bound=16)) == 2
    with pytest.raises(CapacityError):
        orth.enumerate_orth(Z2, bound=3)
    # the bound also caps the number of automorphisms found
    G = FinAbGroup([2, 4])  # |G|^2 = 64, |O| = 128
    assert len(orth.enumerate_orth(G, bound=128)) == 128
    with pytest.raises(CapacityError, match="more than 127"):
        orth.enumerate_orth(G, bound=127)
    # Z2^3 passes the |G|^2 gate at 256 but has 40,320 automorphisms; the
    # search stops at the 257th
    leaves = _record_leaves(monkeypatch)
    with pytest.raises(CapacityError, match="more than 256"):
        orth.enumerate_orth(FinAbGroup([2, 2, 2]))
    assert len(leaves) == 257


# sha256 of repr([a.matrix for a in enumerate_orth(G, bound)]), recorded
# before the search moved onto coordinate tuples: pins the set and the order
ENUMERATION_DIGESTS = [
    ([8], 256, 8, "0089de51fdee801272aff8c505faca4077bac3bebc49536c865067d647a6f721"),
    ([2, 2], 256, 72, "b3810486c9f403ba4e2cfc1a4d618d1d253752846d2ada2884e2939d2f44c65b"),
    ([2, 4], 256, 128, "a00d5eddb41ef448d6073f7c113ade12a5cd7e5b417fefbd136c5ba25e6580ce"),
    ([2, 6], 512, 288, "59bdf4ed63de2f32233e8102fa3a1033b0965526214670bea1bacfeeef8b1a55"),
    ([3, 3], 2048, 1152, "416a1386994c91703b74c136beea1a3b7dad0cfb3e6dc56959e01fad8b0db9b6"),
]


@pytest.mark.parametrize("factors,bound,count,digest", ENUMERATION_DIGESTS,
                         ids=["x".join(map(str, e[0])) for e in ENUMERATION_DIGESTS])
def test_enumeration_set_and_order_pinned(factors, bound, count, digest):
    matrices = [a.matrix for a in orth.enumerate_orth(FinAbGroup(factors), bound)]
    assert len(matrices) == count
    assert hashlib.sha256(repr(matrices).encode()).hexdigest() == digest


def _o_plus_2n_2(n):
    # |O+_2n(2)| = 2 * 2^(n(n-1)) * (2^n - 1) * prod_{0<i<n} (2^(2i) - 1)
    # (Taylor, The Geometry of the Classical Groups, 1992)
    return 2 * 2 ** (n * (n - 1)) * (2 ** n - 1) * prod(4 ** i - 1 for i in range(1, n))


def test_elementary_abelian_count_matches_closed_form():
    assert _o_plus_2n_2(2) == 72 and _o_plus_2n_2(3) == 40320
    assert len(orth.enumerate_orth(Z2xZ2)) == _o_plus_2n_2(2)


@pytest.mark.parametrize("factors", [[2], [3], [4], [8], [2, 2], [2, 4]])
def test_prunings_leave_only_orthogonal_leaves(monkeypatch, factors):
    # order, q and polarization prunings together imply q-preservation at
    # every point: each leaf is one automorphism found, and the pointwise
    # oracle accepts it
    G = FinAbGroup(factors)
    leaves = _record_leaves(monkeypatch)
    found = orth.enumerate_orth(G)
    assert sorted(leaves) == [a.matrix for a in found]
    D = orth.dsum_group(G)
    assert all(oracles.is_orthogonal_pointwise(D.factors, m) for m in leaves)


def test_leaf_check_tests_bijectivity_on_its_own():
    # the generator test has no separate bijectivity check: b's
    # nondegeneracy makes it reject maps that are not bijective
    D = orth.dsum_group(Z2xZ2)
    ident = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert _orthogonal(Z2xZ2, ident)
    for rows in ([(0, 0, 0, 0)] + ident[1:], [ident[1]] + ident[1:],
                 [ident[2], ident[3], ident[2], ident[3]]):
        assert not oracles.is_bijective(D.factors, rows)
        assert not _orthogonal(Z2xZ2, rows)


def _order_compatible_tuples(G):
    D = orth.dsum_group(G)
    images = [[x for x in itertools.product(*(range(f) for f in D.factors))
               if all(m * c % f == 0 for c, f in zip(x, D.factors))]
              for m in D.factors]
    return itertools.product(*images)


def test_generator_test_matches_pointwise_oracle_exhaustively():
    # every order-compatible tuple of generator images: q on generators and
    # b on pairs of generators decide q-preservation at every point
    seen = {True: 0, False: 0}
    orthogonal = 0
    for factors in ([2], [3], [4], [6], [8], [2, 2]):
        G = FinAbGroup(factors)
        D = orth.dsum_group(G)
        for rows in _order_compatible_tuples(G):
            expected = oracles.is_orthogonal_pointwise(D.factors, rows)
            assert _orthogonal(G, rows) is expected, (factors, rows)
            seen[expected] += 1
        orthogonal += len(orth.enumerate_orth(G))
    assert seen == {True: orthogonal, False: 71281 - orthogonal}


def _random_hom(D, rng):
    # each generator image has order dividing the generator's order
    return [[rng.randrange(gcd(m, f)) * (f // gcd(m, f)) for f in D.factors]
            for m in D.factors]


def _is_orthogonal_agrees_with_pointwise_oracle(rng):
    for G in [Z2, Z3, Z4, Z2xZ2, FinAbGroup([2, 4]), FinAbGroup([3, 3]),
              FinAbGroup([2, 1]), FinAbGroup([6])]:
        D = orth.dsum_group(G)
        homs = [_random_hom(D, rng) for _ in range(300)]
        homs += [a.matrix for a in orth.enumerate_orth(G, bound=2048)[::4]]
        kinds = {"orthogonal": 0, "bijective, not orthogonal": 0, "not bijective": 0}
        for h in homs:
            expected = oracles.is_orthogonal_pointwise(D.factors, h)
            assert _orthogonal(G, h) == expected, (G, h)
            if expected:
                kinds["orthogonal"] += 1
            elif oracles.is_bijective(D.factors, h):
                kinds["bijective, not orthogonal"] += 1
            else:
                kinds["not bijective"] += 1
        assert all(kinds.values()), (G, kinds)


def test_is_orthogonal_matches_pointwise_oracle():
    _is_orthogonal_agrees_with_pointwise_oracle(random.Random(20260))


def test_from_json_above_4096_matches_pointwise_oracle():
    # |G+G^| = 2^14 is above 4096: every size takes the one generator test
    G = FinAbGroup([2] * 7)
    D = orth.dsum_group(G)
    shear = _identity_matrix(D)
    shear[0][1] = 1  # g_0 -> g_0 + g_1: bijective, not orthogonal
    verdicts = []
    for matrix in (_swap_matrix(7), shear):
        assert oracles.is_bijective(D.factors, matrix)
        try:
            alpha = orth.OrthAut.from_json(G, {"matrix": matrix})
        except DomainError:
            alpha = None
        verdicts.append(alpha is not None)
        assert verdicts[-1] is oracles.is_orthogonal_pointwise(D.factors, matrix)
        if alpha is not None:
            # the swap sends (g, chi) to (chi, g), so S_alpha is all of G
            gens = orth.stabilizer_generators(alpha)
            assert len(oracles.span(gens, G.factors * 2)) == G.order
    assert verdicts == [True, False]


def test_u_alpha_identity_is_diagonal():
    for G in [Z2, Z3, Z4, Z2xZ2]:
        U = orth.u_alpha(orth.orth_identity(G))
        assert len(U.elements) == G.order
        for e in U.elements:
            assert e.coords[:G.rank] == e.coords[G.rank:]


def test_u_gamma_on_z2_is_everything():
    gamma = orth.OrthAut(Z2, _swap_matrix(1))
    U = orth.u_alpha(gamma)
    assert len(U.elements) == 4
    assert (1, 1) in U.index and (1, 0) in U.index


def test_u_order_is_the_size_of_u_alpha():
    for G in [Z2, Z3, Z4, Z2xZ2, FinAbGroup([2, 4]), FinAbGroup([2, 1])]:
        for a in orth.enumerate_orth(G):
            assert orth.u_order(a) == len(orth.u_alpha(a).elements), a


def test_u_alpha_divides_g_squared():
    for G in [Z2, Z3, Z4, Z2xZ2]:
        for a in orth.enumerate_orth(G):
            U = orth.u_alpha(a)
            assert (G.order ** 2) % len(U.elements) == 0
            # U_alpha is the image of x -> (alpha_1(x), g_x)
            n = G.rank
            image = {oracles.apply_matrix(G.factors, a.matrix, x.coords)[:n]
                     + x.coords[:n]
                     for x in orth.dsum_group(G).elements()}
            assert {e.coords for e in U.elements} == image


@pytest.mark.parametrize("factors", [[2], [4], [2, 2], [8], [2, 4]],
                         ids=["Z2", "Z4", "Z2xZ2", "Z8", "Z2xZ4"])
def test_u_generators_generate_u_alpha(factors):
    # the distinct nonzero images of G+G^'s generators under
    # x -> (alpha_1(x), g_x), read off the matrix, span U_alpha's table
    G = FinAbGroup(factors)
    n = G.rank
    for a in orth.enumerate_orth(G):
        gens = orth.u_generators(a)
        images = [oracles.apply_matrix(factors, a.matrix, e)[:n] + tuple(e[:n])
                  for e in _identity_matrix(orth.dsum_group(G))]
        assert list(gens) == list(dict.fromkeys(
            x for x in images if any(x))), a
        assert set(oracles.span(gens, G.factors * 2)) \
            == {e.coords for e in orth.u_alpha(a).elements}, a


def test_u_alpha_built_once_and_shared_with_psi():
    # an equal but distinct alpha reaches the same memo entries
    for G in [Z2, Z4, Z2xZ2]:
        for a in orth.enumerate_orth(G):
            b = orth.OrthAut(G, a.matrix)
            assert orth.u_alpha(a) is orth.u_alpha(a) is orth.u_alpha(b)
            psi = orth.psi_alpha(b)
            assert psi is orth.psi_alpha(a)
            assert psi.elements == orth.u_alpha(a).elements
            assert psi.law(0, 0) is psi.law(0, 0)


def _exps(psi):
    """psi's exponents as {(a, b): e} over the coordinates of its elements,
    read off psi.law at every pair."""
    elems = [f.coords for f in psi.elements]
    return {(a, b): psi.law(i, j)[1] for i, a in enumerate(elems)
            for j, b in enumerate(elems)}


def test_psi_identity_trivial():
    for G in [Z2, Z3, Z4, Z2xZ2]:
        psi = orth.psi_alpha(orth.orth_identity(G))
        assert psi.N == G.exponent and not any(map(any, psi.E))
        assert set(_exps(psi).values()) == {0}


def test_psi_gamma_z2_value():
    gamma = orth.OrthAut(Z2, _swap_matrix(1))
    psi = orth.psi_alpha(gamma)
    exps = _exps(psi)
    # at (u, 1), (1, u)
    assert CycloScalar.root_of_unity(psi.N, exps[((1, 0), (0, 1))]) \
        == CycloScalar.from_rational(-1)
    # normalization at the identity
    e = psi.pair_group.zero().coords
    for x in psi.elements:
        assert exps[(e, x.coords)] == 0 and exps[(x.coords, e)] == 0


def test_psi_cocycle_identity_all_alphas():
    # construction proves psi_alpha a well-defined bicharacter, and its
    # table passes the oracle's 2-cocycle identity on every triple
    for G in [Z2, Z3, Z4, Z2xZ2]:
        for a in orth.enumerate_orth(G):
            psi = orth.psi_alpha(a)
            elems = [f.coords for f in psi.elements]
            assert oracles.first_cocycle_failure(
                elems, psi.pair_group.factors, _exps(psi), psi.N) is None, a


def test_psi_exponents_match_the_pairing_formula():
    # psi(a, b) = <alpha_2(r)^-1, b_1> <chi_r, b_2> at the first preimage
    # r = (g, chi) of a
    G24 = FinAbGroup([2, 4])
    cases = [(G, a) for G in [Z2, Z3, Z4, Z2xZ2] for a in orth.enumerate_orth(G)]
    cases += [(G24, a) for a in orth.enumerate_orth(G24)[::16]]
    for G, alpha in cases:
        psi = orth.psi_alpha(alpha)
        exps = _exps(psi)
        U = psi
        n = G.rank
        preimage = {}
        for x in orth.dsum_group(G).elements():
            image = oracles.apply_matrix(G.factors, alpha.matrix, x.coords)
            preimage.setdefault(image[:n] + x.coords[:n], x)
        for a in U.elements:
            r = preimage[a.coords]
            chi = G.character(r.coords[n:])
            a2 = G.character(
                oracles.apply_matrix(G.factors, alpha.matrix, r.coords)[n:])
            for b in U.elements:
                b1, b2 = G.element(b.coords[:n]), G.element(b.coords[n:])
                assert exps[(a.coords, b.coords)] == \
                    (-ab.pair(a2, b1) + ab.pair(chi, b2)) % G.exponent


def test_psi_ill_defined_for_a_non_orthogonal_automorphism():
    # chi -> chi^-1 on Z3 + Z3^ is bijective but not orthogonal, and the
    # preimages (g, chi) of one element of U give different pairings.
    # OrthAut refuses it, so the map is placed in one unchecked.
    hom = ((1, 0), (0, 2))
    assert (oracles.is_bijective(orth.dsum_group(Z3).factors, hom)
            and not _orthogonal(Z3, hom))
    alpha = object.__new__(orth.OrthAut)
    object.__setattr__(alpha, "group", Z3)
    object.__setattr__(alpha, "matrix", hom)
    assert any(len(v) > 1 for v in _full_psi_table(Z3, alpha).values())
    for build in (orth.psi_vectors, orth.psi_alpha):
        with pytest.raises(DomainError, match="psi ill-defined"):
            build(alpha)


def test_u_alpha_inverse_is_transpose():
    for G in [Z2, Z3, Z4, Z2xZ2]:
        for a in orth.enumerate_orth(G):
            U = orth.u_alpha(a)
            Uinv = orth.u_alpha(orth.orth_invert(a))
            n = G.rank
            flipped = {e.coords[n:] + e.coords[:n] for e in U.elements}
            assert flipped == {e.coords for e in Uinv.elements}


def _compose_pair_sets(n, A, B):
    """Relation composition of subsets of G x G given as coords sets."""
    out = set()
    firsts = {}
    for c in A:
        firsts.setdefault(c[n:], []).append(c[:n])
    for c in B:
        for a in firsts.get(c[:n], []):
            out.add(a + c[n:])
    return out


def test_u_alpha_composition_containment_and_graph_equality():
    # U_{alpha alpha'} always sits inside the relation composite of U_alpha
    # and U_alpha'; equality needs unique middle witnesses (e.g. graphs),
    # and fails without them (gamma twice over Z2 composes to everything
    # while U_id is the diagonal).
    for G in [Z2, Z3, Z4]:
        n = G.rank
        auts = orth.enumerate_orth(G)
        for a, b in itertools.product(auts, repeat=2):
            Ua = {e.coords for e in orth.u_alpha(a).elements}
            Ub = {e.coords for e in orth.u_alpha(b).elements}
            Uab = {e.coords for e in orth.u_alpha(orth.orth_compose(a, b)).elements}
            comp = _compose_pair_sets(n, Ua, Ub)
            assert Uab <= comp
            graph_like = (len({c[:n] for c in Ua}) == len(Ua)
                          and len({c[n:] for c in Ua}) == len(Ua)
                          and len({c[:n] for c in Ub}) == len(Ub)
                          and len({c[n:] for c in Ub}) == len(Ub))
            if graph_like:
                assert Uab == comp


def test_orth_json_round_trip():
    # an alpha read from JSON compares and hashes equal to the enumerated one
    for G in (Z2xZ2, FinAbGroup([2, 4])):
        for a in orth.enumerate_orth(G):
            b = orth.OrthAut.from_json(G, a.to_json())
            assert b == a and hash(b) == hash(a) and {a: 0}[b] == 0
            assert repr(b) == repr(a) and b.to_json() == a.to_json()


# The oracle's position table of each alpha: the position of the image of
# every element of G+G^, in dsum_group(G).elements() order.  Inverses and
# products, computed from matrices alone, have the inverse and the
# composed tables, and the oracle's composed matrices.
TABLE_GROUPS = [Z2, Z4, Z2xZ2, FinAbGroup([2, 4])]


@pytest.mark.parametrize("G", TABLE_GROUPS,
                         ids=["x".join(map(str, G.factors)) for G in TABLE_GROUPS])
def test_position_tables_agree_with_the_homs(G):
    D = orth.dsum_group(G)
    auts = orth.enumerate_orth(G)
    for a in auts:
        table = oracles.hom_images(D.factors, a.matrix)
        inverse = oracles.hom_images(D.factors, orth.orth_invert(a).matrix)
        assert all(inverse[p] == k for k, p in enumerate(table)), a
        for b in auts[::len(auts) // 16 + 1]:
            composed = orth.orth_compose(a, b)
            assert composed.matrix == oracles.compose_matrices(
                G.factors, a.matrix, b.matrix), (a, b)
            assert oracles.hom_images(D.factors, composed.matrix) == [
                table[i] for i in oracles.hom_images(D.factors, b.matrix)], (a, b)


def _full_psi_table(G, alpha):
    """psi_alpha's exponents from every preimage: for each r = (g, chi) in
    G+G^ and each b in U_alpha, the pairing formula at r, as a dict of
    sets keyed by (a, b), a the image of r in U_alpha."""
    n, N = G.rank, G.exponent
    D = orth.dsum_group(G)
    images = [(x.coords, oracles.apply_matrix(G.factors, alpha.matrix, x.coords))
              for x in D.elements()]
    U = {y[:n] + x[:n] for x, y in images}
    w = [N // f for f in G.factors]
    table = {}
    for x, y in images:
        a = y[:n] + x[:n]
        v = [-s * wi for s, wi in zip(y[n:], w)] + [t * wi for t, wi in zip(x[n:], w)]
        for b in U:
            table.setdefault((a, b), set()).add(sum(map(mul, v, b)) % N)
    return table


@pytest.mark.parametrize("factors", [[2], [4], [2, 2], [2, 4]],
                         ids=["Z2", "Z4", "Z2xZ2", "Z2xZ4"])
def test_psi_exponents_agree_with_every_preimage(factors):
    # every alpha: every preimage of a gives one exponent at every b, and it
    # is psi_alpha's
    G = FinAbGroup(factors)
    for alpha in orth.enumerate_orth(G):
        table = _full_psi_table(G, alpha)
        assert all(len(v) == 1 for v in table.values())
        assert _exps(orth.psi_alpha(alpha)) == {k: min(v)
                                                for k, v in table.items()}


@pytest.mark.parametrize("factors", [[4], [2, 2], [2, 4], [3, 3], [8]])
def test_cocycle_failure_names_the_oracles_triple(factors):
    # the oracle's 2-cocycle identity on every triple against a Twist's test
    # of its generator exponents, on F = G x 0 at N and 2N: a Twist that
    # builds passes it on its whole table, and exponents whose expansion
    # along the oracle's words has a failing triple are refused.  The
    # converse does not hold (on Z2, psi(1, 1) = i is a 2-cocycle but not a
    # bicharacter), so a refusal need not come with a triple
    G = FinAbGroup(factors)
    GG = ab.direct_sum(G, G)
    zero = G.zero().coords
    U = orth.Twist(G, [GG.element(g.coords + zero) for g in G.elements()])
    elems = [e.coords for e in U.elements]
    rng = random.Random(7 * len(elems))
    seen = set()
    for N in (G.exponent, 2 * G.exponent):
        for _ in range(20):
            values = {(g, h): rng.randrange(N) for g in U.gens for h in U.gens}
            want = oracles.expand_bicharacter(U.gens, values, GG.factors, N)
            first = oracles.first_cocycle_failure(elems, GG.factors, want, N)
            try:
                psi = orth.Twist(G, U.elements, N, lambda g, h: values[(g, h)])
            except DomainError as e:
                assert str(e).startswith("psi ill-defined"), values
                seen.add("refused" if first is None else "triple")
            else:
                assert _exps(psi) == want and first is None, values
                seen.add("built")
    assert {"built", "triple"} <= seen, factors


def test_bicharacter_test_matches_the_full_check():
    # a Twist's test of its exponents (every relation among F's generators
    # pairs to 0 mod N) against the oracle's full check of additivity on
    # all triples: psi_alpha always passes both; random exponents on pairs
    # of generators of F = G x 0, at N and 2N, build exactly when their
    # expansion along the oracle's words passes, and then give it
    G24 = FinAbGroup([2, 4])
    cases = [a for G in [Z2, Z3, Z4, Z2xZ2] for a in orth.enumerate_orth(G)]
    cases += orth.enumerate_orth(G24)[::16]
    for alpha in cases:
        psi = orth.psi_alpha(alpha)
        elems = [f.coords for f in psi.elements]
        assert oracles.bi_additive(elems, psi.pair_group.factors, _exps(psi),
                                   psi.N, elems), alpha
    for factors in ([4], [2, 2], [2, 4], [3, 3], [8]):
        G = FinAbGroup(factors)
        GG = ab.direct_sum(G, G)
        zero = G.zero().coords
        U = orth.Twist(G, [GG.element(g.coords + zero) for g in G.elements()])
        elems = [e.coords for e in U.elements]
        rng = random.Random(len(elems))
        seen = set()
        for N in (G.exponent, 2 * G.exponent):
            for _ in range(20):
                values = {(g, h): rng.randrange(N) for g in U.gens for h in U.gens}
                want = oracles.expand_bicharacter(U.gens, values, GG.factors, N)
                ok = oracles.bi_additive(elems, GG.factors, want, N, elems)
                try:
                    psi = orth.Twist(G, U.elements, N, lambda g, h: values[(g, h)])
                except DomainError as e:
                    assert not ok and str(e).startswith("psi ill-defined"), values
                else:
                    assert ok and _exps(psi) == want, values
                seen.add(ok)
        assert seen == {True, False}, factors
