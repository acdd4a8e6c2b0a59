"""Field-axiom and serialization tests for exact cyclotomic scalars."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from brpickit import cyclo
from brpickit.cyclo import (MAX_CONDUCTOR, CycloScalar, cyclotomic_poly, divisors,
                            euler_phi)
from brpickit.errors import CapacityError, DomainError

CONDUCTORS = [1, 2, 3, 4, 6, 8, 12]


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]
    assert divisors(1) == [1]


def test_cyclotomic_polys_match_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # the first conductor whose cyclotomic polynomial has a coefficient not in {-1,0,1}
    assert any(abs(c) > 1 for c in cyclotomic_poly(105))


def test_product_of_cyclotomics_is_x_n_minus_1():
    for n in CONDUCTORS + [9, 10, 15]:
        prod = [Fraction(1)]
        for d in divisors(n):
            phi_d = cyclotomic_poly(d)
            new = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            prod = new
        expected = [Fraction(0)] * (n + 1)
        expected[0], expected[n] = Fraction(-1), Fraction(1)
        assert prod == expected


def _rand_scalar(draw, N):
    phi = euler_phi(N)
    nums = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    dens = draw(st.lists(st.integers(1, 9), min_size=phi, max_size=phi))
    return CycloScalar(N, [Fraction(a, b) for a, b in zip(nums, dens)])


@st.composite
def scalars(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    return _rand_scalar(draw, N)


@st.composite
def scalar_triples_same_field(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    return tuple(_rand_scalar(draw, N) for _ in range(3))


@given(scalar_triples_same_field())
@settings(max_examples=60)
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    one = CycloScalar.one()
    zero = CycloScalar.zero()
    assert a * one == a
    assert a + zero == a
    assert a + (-a) == zero


@given(scalars())
@settings(max_examples=60)
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == CycloScalar.one()


def test_root_of_unity_has_exact_order():
    for N in CONDUCTORS:
        z = CycloScalar.root_of_unity(N)
        one = CycloScalar.one()
        p = z
        for k in range(1, N):
            assert p != one, f"zeta_{N} had order {k} < {N}"
            p = p * z
        assert p == one


def test_roots_of_unity_multiply_by_exponent():
    z = CycloScalar.root_of_unity(12)
    for a in range(12):
        for b in range(12):
            assert CycloScalar.root_of_unity(12, a) * CycloScalar.root_of_unity(12, b) \
                == CycloScalar.root_of_unity(12, (a + b) % 12)


def test_cross_conductor_identities():
    # zeta_2 = -1, zeta_4^2 = -1, zeta_6 = -zeta_3^2
    assert CycloScalar.root_of_unity(2) == CycloScalar.from_rational(-1)
    assert CycloScalar.root_of_unity(4) ** 2 == CycloScalar.from_rational(-1)
    z3 = CycloScalar.root_of_unity(3)
    z6 = CycloScalar.root_of_unity(6)
    assert z6 == -(z3 ** 2)
    assert z6 ** 3 == CycloScalar.from_rational(-1)
    # mixing conductors 4 and 6 lands in conductor 12
    z4 = CycloScalar.root_of_unity(4)
    s = z4 * z6
    assert s.N == 12
    assert s == CycloScalar.root_of_unity(12, 5)


def _written(a, M):
    """a written at conductor M through lift and read back."""
    return CycloScalar(M, [Fraction(x, a.den) for x in a.lift(M)])


@given(scalars())
@settings(max_examples=60)
def test_lift_preserves_value_and_arithmetic(a):
    """lift gives a's numerators at a multiple M of its conductor, those of
    the Fraction reference; read back they are a again, stored form
    included, and the lifts of a + a and a * a read back as the sum and
    product of the read-back values."""
    M = a.N * 3
    num = a.lift(M)
    assert oracles.cyclo_lift(_ref(a), M) == (
        M, tuple(Fraction(x, a.den) for x in num))
    b = _written(a, M)
    assert (b.N, b.num, b.den) == (a.N, a.num, a.den)
    assert _written(a + a, M) == b + b
    assert _written(a * a, M) == b * b


def test_lift_is_injective_on_distinct_values():
    a = CycloScalar.root_of_unity(4)
    b = CycloScalar.root_of_unity(4, 3)
    assert a != b
    assert a.lift(12) != b.lift(12)


@given(scalars())
@settings(max_examples=60)
def test_string_round_trip(a):
    assert CycloScalar.from_string(a.to_string()) == a
    assert CycloScalar.from_string(a.to_string()).N == a.N


def test_string_format_examples():
    z = CycloScalar.root_of_unity(4)
    assert z.to_string() == "1*z@4"
    assert CycloScalar.zero().to_string() == "0@1"
    half = CycloScalar.from_rational(Fraction(1, 2))
    assert (half + z).to_string() == "1/2 + 1*z@4"
    assert CycloScalar.from_string("-1/2 + -2*z^3@8") == CycloScalar(
        8, [Fraction(-1, 2), 0, 0, -2])
    # each value prints at its least conductor, whatever it was written at
    assert CycloScalar.from_string("1@4").to_string() == "1@1"
    assert CycloScalar.from_string("0@3").to_string() == "0@1"
    assert CycloScalar.from_string("1*z^2@8").to_string() == "1*z@4"
    assert CycloScalar.root_of_unity(6).to_string() == "1 + 1*z@3"
    assert (z * z).to_string() == "-1@1"


def test_from_string_caps_the_conductor():
    assert CycloScalar.from_string("1@4") == CycloScalar.from_rational(1)
    assert CycloScalar.from_string("1@4").N == 1
    assert CycloScalar.from_string("0@1") == CycloScalar.zero()
    assert CycloScalar.from_string("0@1").N == 1
    assert 105 < MAX_CONDUCTOR
    assert CycloScalar.from_string(f"1*z@{MAX_CONDUCTOR}").N == MAX_CONDUCTOR
    # accepted at the cap and stored lower: zeta_1000^10 = zeta_100
    assert CycloScalar.from_string(f"1*z^10@{MAX_CONDUCTOR}") == \
        CycloScalar.root_of_unity(100)
    for text in (f"1@{MAX_CONDUCTOR + 1}", "1@1000003"):
        with pytest.raises(CapacityError, match="exceeds"):
            CycloScalar.from_string(text)


@pytest.mark.parametrize("text", ["1@0", "1@-3", "1*z^5@4", "1*z^-1@4"])
def test_from_string_rejects_conductor_and_exponent_out_of_range(text):
    # "1*z^-1@4" used to read coeffs[-1], i.e. +i, where z^-1 is -i
    with pytest.raises(DomainError) as err:
        CycloScalar.from_string(text)
    assert repr(text) in str(err.value)


@pytest.mark.parametrize("text", ["1/0@1", "1@x", "abc@4", "1*z^q@4", "@4",
                                  "1*z^1*z^2@4", "1 + @4"])
def test_from_string_rejects_malformed_scalars_by_name(text):
    # these used to end in ZeroDivisionError or a ValueError naming only
    # the fragment that int() or Fraction() could not read
    with pytest.raises(DomainError, match="malformed scalar") as err:
        CycloScalar.from_string(text)
    assert repr(text) in str(err.value)


def test_int_interop():
    z = CycloScalar.root_of_unity(8)
    assert 1 + z == z + 1
    assert 2 * z == z + z
    assert (1 - z) + (z - 1) == CycloScalar.zero()
    assert 1 / CycloScalar.from_rational(Fraction(3, 5)) == CycloScalar.from_rational(Fraction(5, 3))


def test_pow_negative_exponent():
    z = CycloScalar.root_of_unity(8, 3)
    assert z ** -1 == CycloScalar.root_of_unity(8, 5)
    assert z ** -2 == CycloScalar.root_of_unity(8, 2)


# -- the integer kernel against the Fraction reference ---------------------

@st.composite
def mixed_scalars(draw):
    """Any conductor in CONDUCTORS; a third of the values are flat (rational),
    so the rational fast path meets every conductor pair."""
    N = draw(st.sampled_from(CONDUCTORS))
    a = _rand_scalar(draw, N)
    if draw(st.integers(0, 2)) == 0:
        return CycloScalar(N, [a.coeffs[0]])
    return a


def _ref(a):
    return a.N, a.coeffs


def _assert_lowest_terms(a):
    """a is in the one form: lowest terms at its least conductor."""
    assert a.N == oracles.least_conductor(a.N, a.coeffs)
    assert len(a.num) == euler_phi(a.N)
    assert all(type(x) is int for x in a.num)
    assert type(a.den) is int and a.den > 0
    assert gcd(a.den, *a.num) == 1
    if not any(a.num):
        assert a.den == 1


def _assert_matches(got, ref):
    """got is the reference value (N, coeffs) in the one form: at the
    value's least conductor, and lifting back to coeffs at N."""
    N, coeffs = ref
    assert got.N == oracles.least_conductor(N, coeffs)
    assert oracles.cyclo_lift(_ref(got), N) == ref
    assert got == CycloScalar(N, coeffs)
    _assert_lowest_terms(got)


@given(mixed_scalars(), mixed_scalars())
@settings(max_examples=200)
def test_kernel_matches_fraction_reference(a, b):
    _assert_matches(a * b, oracles.cyclo_mul(_ref(a), _ref(b)))
    _assert_matches(b * a, oracles.cyclo_mul(_ref(b), _ref(a)))
    _assert_matches(a + b, oracles.cyclo_add(_ref(a), _ref(b)))
    _assert_matches(b + a, oracles.cyclo_add(_ref(b), _ref(a)))
    M = a.N * b.N
    _assert_matches(_written(a, M), oracles.cyclo_lift(_ref(a), M))
    same = oracles.cyclo_lift(_ref(a), M) == oracles.cyclo_lift(_ref(b), M)
    assert (a == b) == same and (b == a) == same
    assert not same or hash(a) == hash(b)


@given(mixed_scalars())
@settings(max_examples=100)
def test_lowest_terms_after_each_op(a):
    _assert_lowest_terms(a)
    b = CycloScalar(a.N, [Fraction(1, 2)] * euler_phi(a.N))
    for r in (a + a, a - a, -a, a * b, b * a, a + b, b + a, a * a,
              a + Fraction(1, 2), Fraction(2, 3) * a, _written(a, 3 * a.N),
              a * 0, 2 * a - a):
        _assert_lowest_terms(r)
    if not a.is_zero():
        _assert_lowest_terms(a.inv())
        _assert_lowest_terms(b / a)


def _count_lifts(monkeypatch):
    """Record (N, M) for every lift from N to M, products' included.  A
    product lifts only when it misses the memo, so the memo starts empty."""
    calls = []
    lifted = cyclo._lifted

    def counted(N, num, M):
        calls.append((N, M))
        return lifted(N, num, M)

    monkeypatch.setattr(cyclo, "_lifted", counted)
    cyclo._product.cache_clear()
    return calls


def test_n4_times_n3_lands_at_n12_by_lift(monkeypatch):
    """A value written at N = 2 is rational, stored at N = 1, and scales
    or shifts a value at N = 3 without a lift; a value at N = 4 and one at
    N = 3 are both lifted to 12."""
    flat = CycloScalar(2, [Fraction(-3, 2)])
    z3 = CycloScalar(3, [1, 2])
    z4 = CycloScalar(4, [1, 1])
    assert flat.N == 1
    lifts = _count_lifts(monkeypatch)
    for p in (flat * z3, z3 * flat):
        assert p.N == 3
        _assert_matches(p, oracles.cyclo_mul(_ref(flat), _ref(z3)))
    s = flat + z3
    assert s.N == 3
    _assert_matches(s, oracles.cyclo_add(_ref(flat), _ref(z3)))
    assert lifts == []
    for p in (z4 * z3, z3 * z4):
        assert p.N == 12
        _assert_matches(p, oracles.cyclo_mul(_ref(z4), _ref(z3)))
    assert (4, 12) in lifts and (3, 12) in lifts
    s = z4 + z3
    assert s.N == 12
    _assert_matches(s, oracles.cyclo_add(_ref(z4), _ref(z3)))


def test_flat_n4_times_n8_scales_without_lift(monkeypatch):
    flat = CycloScalar(4, [Fraction(5, 6)])
    v = CycloScalar(8, [Fraction(3, 5), 0, Fraction(-6, 7), 2])
    lifts = _count_lifts(monkeypatch)
    for p in (flat * v, v * flat):
        assert p.N == 8
        _assert_matches(p, oracles.cyclo_mul(_ref(flat), _ref(v)))
    for s in (flat + v, v + flat):
        assert s.N == 8
        _assert_matches(s, oracles.cyclo_add(_ref(flat), _ref(v)))
    assert flat * v != v and flat + v != v
    assert lifts == []


def test_minus_one_across_conductors():
    assert CycloScalar(2, [-1]) == CycloScalar(1, [-1])
    assert CycloScalar(1, [-1]) == CycloScalar(2, [-1])
    assert CycloScalar.root_of_unity(2) == -1
    assert CycloScalar(2, [-1]) != CycloScalar(1, [1])
    assert CycloScalar(4, [-1, 0]) == CycloScalar(2, [-1])
    assert CycloScalar(4, [-1, 1]) != CycloScalar(2, [-1])


def test_inv_of_negative_rational():
    """A rational, written at any conductor, is stored and inverted at
    N = 1, the sign carried by the numerator."""
    q = CycloScalar(4, [Fraction(-3, 5)])
    r = q.inv()
    assert r.N == 1 and r.coeffs == (Fraction(-5, 3),)
    assert (r.num, r.den) == ((-5,), 3)
    assert q * r == 1
    assert CycloScalar.from_rational(-7).inv().coeffs == (Fraction(-1, 7),)
    assert CycloScalar(8, [Fraction(2, 9)]).inv().coeffs == (Fraction(9, 2),)


# -- rationals add and multiply on their numerators --------------------------

def _assert_rational(got, q):
    """got is the Fraction q in the one form at N = 1: its stored triple,
    hash, text and value."""
    assert (got.N, got.num, got.den) == (1, (q.numerator,), q.denominator)
    assert hash(got) == hash(q)
    assert got.to_string() == f"{q}@1"
    assert got.coeffs == (q,) and got == q


_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@given(_fractions, _fractions, st.integers(-4, 4), st.integers(-4, 4)
       .filter(bool))
@settings(max_examples=200)
def test_rational_path_matches_fractions(p, q, c0, c1):
    """+, -, unary -, * and inv on two rationals give the Fraction result
    at N = 1; a rational plus an irrational value at N = 4 still lifts to
    N = 4 and shifts its constant term."""
    a, b = CycloScalar.from_rational(p), CycloScalar.from_rational(q)
    for got, want in ((a + b, p + q), (b + a, q + p), (a - b, p - q),
                      (-a, -p), (a * b, p * q), (a + 0, p), (1 + a, 1 + p)):
        _assert_rational(got, want)
    if q:
        _assert_rational(b.inv(), 1 / q)
    z = CycloScalar(4, [c0, Fraction(c1, 3)])
    for got, ref in ((a + z, oracles.cyclo_add(_ref(a), _ref(z))),
                     (z + a, oracles.cyclo_add(_ref(z), _ref(a))),
                     (z - a, oracles.cyclo_add(_ref(z), _ref(-a)))):
        assert got.N == 4
        _assert_matches(got, ref)


# -- the inverse by the norm against the extended-gcd reference ------------

@st.composite
def irrational_scalars(draw):
    """A value with a nonzero coefficient beyond the constant term, at a
    conductor with phi(N) > 1; dense or sparse."""
    N = draw(st.sampled_from([N for N in CONDUCTORS + [5, 7, 9, 15, 16, 24]
                              if euler_phi(N) > 1]))
    a = _rand_scalar(draw, N)
    if draw(st.booleans()):  # sparse: most coefficients dropped
        keep = draw(st.sets(st.integers(0, euler_phi(N) - 1), max_size=2))
        a = CycloScalar(N, [c if k in keep else 0
                            for k, c in enumerate(a.coeffs)])
    if not any(a.coeffs[1:]):  # rational
        a = a + CycloScalar.root_of_unity(N)
    return a


@given(irrational_scalars())
@settings(max_examples=150)
def test_inv_matches_extended_gcd_reference(a):
    r = a.inv()
    _assert_matches(r, oracles.cyclo_inv(_ref(a)))
    assert a * r == 1


@pytest.mark.parametrize("N", [97, 256])
def test_inv_of_dense_value_at_large_conductor(N):
    # every coefficient nonzero, so no product in the norm is sparse
    phi = euler_phi(N)
    a = CycloScalar(N, [Fraction((-1) ** k * (k % 7 + 1), k % 3 + 1)
                        for k in range(phi)])
    r = a.inv()
    _assert_lowest_terms(r)
    assert r.N == N and a * r == 1


MEMO_CONDUCTORS = [1, 2, 3, 4, 8, 12]


@st.composite
def memo_operands(draw):
    """A value written at a conductor in MEMO_CONDUCTORS; half are
    rationals, small enough that equal numerators recur."""
    N = draw(st.sampled_from(MEMO_CONDUCTORS))
    if draw(st.booleans()):
        return CycloScalar(
            N, [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))])
    return _rand_scalar(draw, N)


def _key(a):
    return a.N, a.num, a.den


@given(st.lists(memo_operands(), min_size=2, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=24))
@settings(max_examples=150)
def test_memo_mul_is_exact_at_every_conductor(pool, picks):
    """a * b over many pairs, repeats included: every result has the
    (N, num, den) of the arithmetic without the memo, on the first call and
    on every repeat."""
    plain = cyclo._product.__wrapped__
    for _ in range(2):
        for i, j in picks:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            assert _key(a * b) == _key(plain(*_key(a), *_key(b)))


def test_memo_mul_keys_on_the_conductor():
    """Equal (num, den) at different conductors: phi(3) = phi(4) and
    phi(5) = phi(8), so only N tells these operands apart.  A rational is
    stored at N = 1 whatever N it is written at, and zeta_8^2 descends."""
    two = {N: CycloScalar(N, [2]) for N in (1, 2, 4)}
    assert {_key(t) for t in two.values()} == {(1, (2,), 1)}
    three = CycloScalar.from_rational(3)
    z3, z4, z5, z8 = (CycloScalar.root_of_unity(N) for N in (3, 4, 5, 8))
    assert z3.num == z4.num and z5.num == z8.num
    cases = [(two[4], three, (1, (6,), 1)), (three, two[2], (1, (6,), 1)),
             (z3, three, (3, (0, 3), 1)), (z4, three, (4, (0, 3), 1)),
             (z3, z3, (3, (-1, -1), 1)), (z4, z4, (1, (-1,), 1)),
             (z5, z5, (5, (0, 0, 1, 0), 1)), (z8, z8, (4, (0, 1), 1))]
    plain = cyclo._product.__wrapped__
    for a, b, want in cases:
        assert _key(plain(*_key(a), *_key(b))) == want
        assert _key(a * b) == want


@pytest.mark.parametrize("N", [5, 12, 97])
def test_inv_bypasses_the_product_memo(N):
    """inv forms its norm chain outside the memo: the conjugates never
    repeat, so they would only crowd it.  The result is the one inverse at
    N, so it has the (N, num, den) inv gave before the memo."""
    phi = euler_phi(N)
    a = CycloScalar(N, [Fraction(k % 5 - 2, k % 3 + 1) for k in range(phi)])
    assert any(a.coeffs[1:])  # not rational
    before = cyclo._product.cache_info().currsize
    r = a.inv()
    assert cyclo._product.cache_info().currsize == before
    _assert_matches(r, oracles.cyclo_inv(_ref(a)))


# -- one form per value, against the Galois-fixer reference ----------------

WRITTEN_CONDUCTORS = sorted({d for n in (8, 12, 24, 30, 60, 600)
                             for d in divisors(n)})


def _text(N, coeffs):
    """coeffs at conductor N in to_string's format."""
    terms = [str(c) if k == 0 else f"{c}*z" if k == 1 else f"{c}*z^{k}"
             for k, c in enumerate(coeffs) if c]
    return (" + ".join(terms) or "0") + f"@{N}"


@st.composite
def written_values(draw):
    """(N, coeffs at N, value): a value of Q(zeta_M) drawn at M and written
    at a multiple N of M, N among the divisors of 8, 12, 24, 30, 60 and
    600.  Half the draws keep at most three coefficients, so values that
    lie in a smaller field than Q(zeta_M) come up too."""
    N = draw(st.sampled_from(WRITTEN_CONDUCTORS))
    M = draw(st.sampled_from(divisors(N)))
    phi = euler_phi(M)
    keep = (draw(st.sets(st.integers(0, phi - 1), max_size=3))
            if draw(st.booleans()) else range(phi))
    coeffs = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
              if k in keep else Fraction(0) for k in range(phi)]
    return (N, oracles.cyclo_lift((M, tuple(coeffs)), N)[1],
            CycloScalar(M, coeffs))


@given(written_values())
@example((6, (0, 1), CycloScalar.root_of_unity(3) + 1))  # p || N descends
@example((8, (0, 0, 1, 0), CycloScalar.root_of_unity(4)))  # p^2 | N descends
@settings(max_examples=150, deadline=None)
def test_written_value_reads_back_at_its_least_conductor(case):
    """A value written at any multiple of its field's conductor reads back
    as one scalar: the same (N, num, den), hash and text as the value made
    at M, at the least conductor the Galois-fixer reference finds."""
    N, coeffs, value = case
    got = CycloScalar.from_string(_text(N, coeffs))
    assert (got.N, got.num, got.den) == (value.N, value.num, value.den)
    assert hash(got) == hash(value)
    assert got.to_string() == value.to_string()
    assert got.N == oracles.least_conductor(N, coeffs)
    assert oracles.cyclo_lift(_ref(got), N) == (N, coeffs)


@given(written_values(), written_values())
@settings(max_examples=100, deadline=None)
def test_output_is_invariant_under_operand_order(x, y):
    """a * b and b * a print the same text, and so do a + b and b + a;
    (a + b) - b prints as a, whatever conductors the history passed."""
    a, b = x[2], y[2]
    assert (a * b).to_string() == (b * a).to_string()
    assert (a + b).to_string() == (b + a).to_string()
    assert ((a + b) - b).to_string() == a.to_string()
