"""Tests for finite abelian group arithmetic and the canonical pairing."""

import itertools
import random
from math import gcd

import pytest

import oracles
from brpickit import abelian as ab
from brpickit import orth
from brpickit.abelian import FinAbGroup
from brpickit.cyclo import CycloScalar
from brpickit.errors import DomainError

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])
Z2xZ2 = FinAbGroup([2, 2])
Z2xZ3 = FinAbGroup([2, 3])


def test_group_basics():
    assert Z2xZ3.order == 6
    assert Z2xZ3.exponent == 6
    assert Z2xZ2.exponent == 2
    assert len(list(Z2xZ3.elements())) == 6
    assert FinAbGroup([]).order == 1
    with pytest.raises(DomainError):
        FinAbGroup([0])


def test_element_arithmetic():
    a = Z4.element([3])
    b = Z4.element([2])
    assert ab.add(a, b) == Z4.element([1])
    assert ab.neg(a) == Z4.element([1])
    assert ab.add(a, ab.neg(a)) == Z4.zero()
    assert ab.order_of(a) == 4
    assert ab.order_of(b) == 2
    assert ab.order_of(Z4.zero()) == 1
    with pytest.raises(DomainError):
        ab.add(a, Z2.element([1]))


def test_pair_z2():
    chi = Z2.character((1,))
    u = Z2.generator(0)
    assert ab.pair(chi, u) == 1
    assert ab.pair(Z2.character((0,)), u) == 0
    assert ab.pair_value(chi, u) == CycloScalar.from_rational(-1)


def test_pair_z4():
    chi = Z4.character((1,))
    g = Z4.generator(0)
    assert ab.pair(chi, ab.add(g, g)) == 2
    assert ab.pair_value(chi, ab.add(g, g)) == CycloScalar.from_rational(-1)
    assert ab.pair_value(chi, g) == CycloScalar.root_of_unity(4)


def test_pair_mixed_factors():
    # N = 6; generator weights are N/2 = 3 and N/3 = 2
    chi = Z2xZ3.character([1, 1])
    g = Z2xZ3.element([1, 1])
    assert ab.pair(chi, g) == (3 + 2) % 6


def test_pair_bilinear_and_nondegenerate_exhaustive():
    for G in [Z2, Z4, Z2xZ2, Z2xZ3, FinAbGroup([2, 4])]:
        N = G.exponent
        chars = [G.character(c) for c in itertools.product(*map(range, G.factors))]
        elts = list(G.elements())
        for x, y in itertools.product(chars, repeat=2):
            for g in elts:
                assert ab.pair(ab.add(x, y), g) == (ab.pair(x, g) + ab.pair(y, g)) % N
        for g, h in itertools.product(elts, repeat=2):
            for x in chars:
                assert ab.pair(x, ab.add(g, h)) == (ab.pair(x, g) + ab.pair(x, h)) % N
        for x in chars:
            if all(ab.pair(x, g) == 0 for g in elts):
                assert x == G.character((0,) * G.rank)


def test_direct_sum_and_dual():
    S = ab.direct_sum(Z2, Z2)
    assert S.factors == (2, 2)
    assert ab.dual_group(Z2xZ3).factors == (2, 3)


def test_hom_apply_and_compose():
    # an automorphism of G+G^ is applied through its matrix; on Z2 x Z4
    # (factors 2, 4, 2, 4) the images of the elements, in order, are the
    # oracle's image list, the identity is neutral, and alpha after alpha
    # is the matrix product
    G = FinAbGroup([2, 4])
    D = orth.dsum_group(G)
    ident = orth.orth_identity(G)
    index = {x.coords: k for k, x in enumerate(D.elements())}
    for a in orth.enumerate_orth(G):
        assert [index[orth._apply(D.factors, a.matrix, x.coords)]
                for x in D.elements()] == oracles.hom_images(D.factors, a.matrix)
        assert orth.orth_compose(a, ident) == a == orth.orth_compose(ident, a)
        assert orth.orth_compose(a, a).matrix == oracles.compose_matrices(
            G.factors, a.matrix, a.matrix)


# orth_compose multiplies matrices; the matrices it gives are those the
# oracle composes, bijective, and the product associates.
COMPOSE_GROUPS = [[2], [4], [2, 2], [8], [2, 4], [3], [2, 3], [6]]


def test_automorphism_composition_group_spotcheck():
    rng = random.Random(11)
    for factors in COMPOSE_GROUPS:
        G = FinAbGroup(factors)
        D = orth.dsum_group(G)
        auts = orth.enumerate_orth(G)
        for _ in range(40):
            f, g, h = rng.choice(auts), rng.choice(auts), rng.choice(auts)
            fg = orth.orth_compose(f, g)
            assert fg.matrix == oracles.compose_matrices(factors, f.matrix,
                                                         g.matrix), (f, g)
            assert oracles.is_bijective(D.factors, fg.matrix)
            assert (orth.orth_compose(fg, h)
                    == orth.orth_compose(f, orth.orth_compose(g, h)))


def test_addition_table_matches_add():
    # a Twist's law gives the position of elements[i] + elements[j] at
    # (i, j), on G x G, on G x 0 and on a subgroup of order 4
    for G in (Z2xZ3, FinAbGroup([2, 4])):
        GG = ab.direct_sum(G, G)
        zero = G.zero().coords
        sets = [list(GG.elements()),
                [GG.element(g.coords + zero) for g in G.elements()]]
        if G.factors == (2, 4):
            sets.append([GG.element(c + zero)
                         for c in [(0, 0), (1, 2), (0, 2), (1, 0)]])
        for els in sets:
            U = orth.Twist(G, els)
            assert U.elements == tuple(sorted(els, key=lambda x: x.coords))
            assert U.index == {x.coords: k for k, x in enumerate(U.elements)}
            for i, x in enumerate(U.elements):
                for j, y in enumerate(U.elements):
                    k, e = U.law(i, j)
                    assert U.elements[k] == ab.add(x, y) and e == 0


def _span(els, kept):
    """Every sum of multiples of the kept elements, by closure under add."""
    zero = els[0].parent.zero()
    reached = {zero}
    frontier = [zero]
    while frontier:
        frontier = [s for s in {ab.add(x, els[g]) for x in frontier for g in kept}
                    if s not in reached]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("factors", [[1], [2], [4], [2, 2], [2, 4], [2, 3],
                                     [3, 3], [2, 2, 2], [4, 4], [8]])
def test_generators_generate_and_none_is_redundant(factors):
    # a Twist's generators, on G x G, its diagonal and G x 0, generate F;
    # each is the first element, in sorted order, outside the span of the
    # ones kept before it; and each element is the sum its word names
    G = FinAbGroup(factors)
    GG = ab.direct_sum(G, G)
    zero = G.zero().coords
    for els in (list(GG.elements()),
                [GG.element(g.coords * 2) for g in G.elements()],
                [GG.element(g.coords + zero) for g in G.elements()]):
        U = orth.Twist(G, els)
        order = U.elements
        gens = [U.index[g] for g in U.gens]
        spans = [_span(order, gens[:k]) for k in range(len(gens) + 1)]
        assert spans[-1] == set(order)
        for k, g in enumerate(gens):
            assert order[g] not in spans[k]
            assert all(x in spans[k] for x in order[:g])
        for x, word in zip(order, U.words):
            assert tuple(sum(c * g[i] for c, g in zip(word, U.gens)) % f
                         for i, f in enumerate(GG.factors)) == x.coords
    assert orth.Twist(FinAbGroup([1]), [ab.direct_sum(
        FinAbGroup([1]), FinAbGroup([1])).zero()]).gens == ()


def test_addition_table_none_when_not_closed():
    # Twist's closure walk against a brute-force check: distinct elements of
    # G x G, the identity among them, build exactly when closed under
    # addition; on subgroups spanned by random elements, with one element
    # dropped or not, and on random subsets
    rng = random.Random(5)
    for G in (Z2, Z4, Z2xZ2):
        GG = ab.direct_sum(G, G)
        fs = GG.factors
        pool = [e.coords for e in GG.elements() if any(e.coords)]
        seen = set()
        for _ in range(40):
            span = set(oracles.span(rng.sample(pool, rng.randrange(1, 3)), fs))
            if rng.randrange(2):
                span.discard(rng.choice(pool))
            for els in (span, {GG.zero().coords, *rng.sample(pool, 3)}):
                closed = all(tuple((x + y) % f for x, y, f in zip(a, b, fs)) in els
                             for a in els for b in els)
                seen.add(closed)
                try:
                    U = orth.Twist(G, [GG.element(a) for a in els])
                except DomainError as e:
                    assert not closed and "not closed under addition" in str(e), els
                else:
                    assert closed and set(U.index) == els, els
        assert seen == {True, False}, G


def test_twisted_subgroup_closure_errors():
    GG = ab.direct_sum(Z4, Z4)
    # {0, (1, 1)}: (1, 1) + (1, 1) = (2, 2) is missing
    with pytest.raises(DomainError, match="not closed under addition"):
        orth.Twist(Z4, [GG.zero(), GG.element([1, 1])])
    # no identity: the empty list, and {(1, 0), (0, 1)} in Z2 x Z2 (whose
    # sum and doubles are missing too)
    Z2Z2 = ab.direct_sum(Z2, Z2)
    for G, els in ((Z4, []), (Z2, [Z2Z2.element([1, 0]), Z2Z2.element([0, 1])])):
        with pytest.raises(DomainError, match="the identity among them"):
            orth.Twist(G, els)
    # elements of another group, or one listed twice
    for els in ([GG.zero(), Z2Z2.zero()], [GG.zero(), GG.zero()]):
        with pytest.raises(DomainError, match="distinct elements of G x G"):
            orth.Twist(Z4, els)
    U = orth.Twist(Z4, [GG.element([k, k]) for k in range(4)])
    assert (3, 3) in U.index and (1, 0) not in U.index


def test_non_integer_factors_and_coordinates_refused():
    # int() used to truncate them: [2.7] was Z2, [True] was Z1
    for factors in ([2.7], [True], ["2"]):
        with pytest.raises(DomainError, match="integers >= 1"):
            FinAbGroup(factors)
    G = FinAbGroup([4])
    for bad in (1.5, True, "1"):
        with pytest.raises(DomainError, match="coordinates must be integers"):
            G.element((bad,))
        with pytest.raises(DomainError, match="coordinates must be integers"):
            orth.OrthAut(G, [(bad, 0), (0, 1)])


def test_generators_of_a_trivial_factor_are_reduced():
    G = FinAbGroup([2, 1])
    assert G.generator(1) == G.zero()
    assert G.generator(0).coords == (1, 0)


# -- congruence systems -------------------------------------------------------

def _brute_solve(factors, rows):
    """(first solution or None, the kernel as a set) by listing the group."""
    def holds(x, zero):
        return all((sum(map(int.__mul__, a, x)) - (0 if zero else c)) % m == 0
                   for a, c, m in rows)
    elements = list(itertools.product(*(range(f) for f in factors)))
    return (next((x for x in elements if holds(x, False)), None),
            {x for x in elements if holds(x, True)})


def _random_system(rng):
    """Up to four well-defined congruences over up to four cyclic factors;
    half of them have a solution planted."""
    factors = [rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in range(rng.randint(1, 4))]
    rows = []
    for _ in range(rng.randint(0, 4)):
        m = rng.choice((1, 2, 3, 4, 6, 12))
        # m divides a_j f_j: a_j is a multiple of m / gcd(m, f_j)
        rows.append(([rng.randrange(12) * (m // gcd(m, f)) for f in factors],
                     rng.randrange(m), m))
    if rows and rng.random() < 0.5:
        x = [rng.randrange(f) for f in factors]
        rows = [(a, sum(map(int.__mul__, a, x)) % m, m) for a, _, m in rows]
    return factors, rows


def test_solve_matches_brute_force():
    # the lexicographically first solution, or None, and the kernel's
    # generators and order, against listing every element
    rng = random.Random(36)
    solvable = 0
    for _ in range(1500):
        factors, rows = _random_system(rng)
        first, kernel, order = ab.solve(factors, rows)
        want_first, want_kernel = _brute_solve(factors, rows)
        assert first == want_first, (factors, rows)
        assert order == len(want_kernel), (factors, rows)
        assert all(any(k) for k in kernel)
        assert set(oracles.span(kernel, factors)) == want_kernel, (factors, rows)
        solvable += first is not None
    assert 500 < solvable < 1400


def test_solve_first_solution_is_reduced_by_every_later_pivot():
    # x1 + x2 = 1 over Z2 x Z2: the Hermite row of t has x-part (1, 0), and
    # reducing it by x1's pivot gives the first solution (0, 1), the one an
    # x-outer search meets first
    assert ab.solve([2, 2], [([1, 1], 1, 2)]) == ((0, 1), [(1, 1)], 2)
    # x1 + 3 x2 cannot be both 1 and 2 mod 4
    assert ab.solve([4, 4], [([1, 3], 1, 4), ([1, 3], 2, 4)])[0] is None
