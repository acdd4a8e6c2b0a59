"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is an element of Q(zeta_N) written in the power basis 1, z, ...,
z^(phi(N)-1), z = zeta_N = exp(2*pi*i/N), as a residue mod Phi_N (the N-th
cyclotomic polynomial).

One form per value.  Q(zeta_m) & Q(zeta_n) = Q(zeta_gcd(m, n)), so every
value lies in one least field Q(zeta_N), N its least conductor.  A scalar
is stored there: N, a tuple num of phi(N) integer numerators and one common
denominator den > 0, in lowest terms (gcd(den, *num) == 1).  _make and the
constructor bring every result to this form (_descend has the lemma), so
== is a tuple comparison, scalars hash, and equal values print the same
text whatever arithmetic made them.  A rational is exactly a value at
N = 1; zero is (1, (0,), 1).  from_string reads a value written at any
conductor up to MAX_CONDUCTOR and stores it at its least one.

phi(N) and the table of x^k mod Phi_N are cached per N; Phi_N is monic over
Z, so the table is integral and reduction, products, lifts and descents run
on ints, with one gcd per result.  Fractions appear only at the boundary
(the constructor, coeffs, from_rational and from_string).

Operands at different conductors are lifted to Q(zeta_lcm) exactly and the
result descends.  A rational operand lifts to (q, 0, ...) at any N, so *
scales the other operand's numerators and + shifts its constant term.  Two
rationals add and multiply on their numerators alone, and a result at N = 1
is already at its least conductor, so it skips the descent; negation keeps
the one form and makes -v without a gcd.

Products are memoized.  a * b looks up _product, an lru_cache of at most
2^16 entries keyed on both operands' (N, num, den).  The tables built over
these scalars hold mostly +-zeta^k, so most products repeat.  inv bypasses
the memo: the conjugates of its norm never repeat, and at a large conductor
each would pin a phi(N)-sized entry.  They stay raw numerators at N
(_times, the multiply _product shares), and only the inverse is made
canonical; it takes phi(N) - 1 products whatever the value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm
from typing import Iterable

from .errors import CapacityError, DomainError

# Largest conductor from_string accepts.  A scalar at conductor N carries
# phi(N) coefficients and its products cost about phi(N)^2, so a large N in
# a spec is refused before anything is allocated.
MAX_CONDUCTOR = 1000


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials (monic denominator, low degree first).
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        quot[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Monic integer coefficients of Phi_n, constant term first.

    Computed by dividing x^n - 1 by all Phi_d with d | n, d < n.
    """
    if n < 1:
        raise DomainError(f"conductor must be positive, got {n}")
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in divisors(n):
        if d < n:
            poly = _poly_exact_div(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def euler_phi(n: int) -> int:
    """phi(n), the degree of Phi_n."""
    return len(cyclotomic_poly(n)) - 1


_phi = cache(euler_phi)


@cache
def _monomial_reductions(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # x^k mod Phi_n for k = 0 .. 2*phi-2, each row as its nonzero (j, c)
    # pairs.  Phi_n is monic over Z, so every entry is an int.
    phi_poly = cyclotomic_poly(n)
    phi = len(phi_poly) - 1
    top = [-c for c in phi_poly[:phi]]  # x^phi = -(lower part)
    rows = [[1 if j == k else 0 for j in range(phi)] for k in range(phi)]
    current = top
    rows.append(current)
    for _ in range(phi - 2):
        overflow = current[-1]
        current = [0] + current[:-1]
        if overflow:
            current = [s + overflow * t for s, t in zip(current, top)]
        rows.append(current)
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)


def _reduce(n: int, raw: list[int]) -> list[int]:
    # Reduce an integer coefficient list of any length mod Phi_n, in place
    # from the top, so every monomial lands inside the table range.
    phi = _phi(n)
    if len(raw) <= phi:
        return raw + [0] * (phi - len(raw))
    table = _monomial_reductions(n)
    last = 2 * phi - 2
    for k in range(len(raw) - 1, phi - 1, -1):
        c = raw[k]
        if c:
            if k <= last:
                for j, t in table[k]:
                    raw[j] += c * t
            else:
                # x^k = x^(k-phi) * x^phi; push down using the top row.
                base = k - phi
                for j, t in table[phi]:
                    raw[base + j] += c * t
    del raw[phi:]
    return raw


@cache
def _steps(N: int) -> tuple:
    """(p, off, split) for each prime p | N, ascending, that a value can
    descend by (_descend).  When p^2 | N, off slices out the exponents not
    divisible by p and split is None; else off is None and split lists the
    (r, j) with zeta_N^k = zeta_p^r zeta_m^j, N = p m, for each power-basis
    exponent k.  At N = p only the rationals descend, so a prime N has no
    step."""
    steps = []
    for p in divisors(N)[1:-1]:
        if _phi(p) != p - 1:  # p is not prime
            continue
        m = N // p
        if m % p == 0:
            steps.append((p, tuple(slice(r, None, p) for r in range(1, p)), None))
        else:
            a, b = pow(m, -1, p), pow(p, -1, m)
            steps.append((p, None, tuple((a * k % p, b * k % m)
                                         for k in range(_phi(N)))))
    return tuple(steps)


def _descend(N: int, num) -> tuple:
    """(M, numerators at M) for the value num at N, M its least conductor.

    Lemma.  Let v in Q(zeta_N) and p a prime dividing N.
    - p^2 | N.  Phi_N(x) = Phi_{N/p}(x^p), so the power basis of Q(zeta_N)
      is the zeta_N^(r + p j), r < p, j < phi(N/p), and v lies in
      Q(zeta_{N/p}) exactly when every coefficient at an exponent not
      divisible by p is 0.  Its numerators there are num[::p].
    - p || N, N = p m.  zeta_N = zeta_p^a zeta_m^b with a = m^-1 mod p and
      b = p^-1 mod m, since a m + b p = 1 mod N.  Grouping by the power of
      zeta_p writes v = sum_{r<p} c_r zeta_p^r, c_r in Q(zeta_m) reduced
      mod Phi_m.  Over Q(zeta_m) the zeta_p^r, 1 <= r < p, are a basis of
      Q(zeta_N), and zeta_p^0 = -(their sum), so v = sum_{r>=1} (c_r - c_0)
      zeta_p^r lies in Q(zeta_m) exactly when c_1 = ... = c_{p-1}, and then
      v = c_0 - c_1.  For p = 2 there is one c_r: v always descends.
    Each test is exact.  The conductors of v are closed under gcd, so they
    have a least one, M; while N != M some prime p divides N / M, and then
    v lies in Q(zeta_{N/p}) and p's test passes.  So descending while some
    test passes ends at M.  A rational value (N = 1 and phi(N) = 1
    included) goes to N = 1 at once.
    """
    while any(num[1:]):
        for p, off, split in _steps(N):
            if off:
                if not any(map(any, map(num.__getitem__, off))):
                    N, num = N // p, num[::p]
                    break
            else:
                m = N // p
                cs = [[0] * m for _ in range(p)]
                for (r, j), x in zip(split, num):
                    cs[r][j] += x
                c1 = _reduce(m, cs[1])
                if all(_reduce(m, c) == c1 for c in cs[2:]):
                    N, num = m, [x - y for x, y in zip(_reduce(m, cs[0]), c1)]
                    break
        else:
            return N, num
    return 1, num[:1]


_new = object.__new__


def _fill(s, N: int, num, den: int) -> "CycloScalar":
    """s set to num/den at N, brought to the one form (den > 0).  A value
    at N = 1 is already at its least conductor, so only N > 1 descends."""
    if N != 1:
        N, num = _descend(N, num)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    _set_N(s, N)
    _set_num(s, tuple(num))
    _set_den(s, den)
    return s


def _make(N: int, num, den: int) -> "CycloScalar":
    """The scalar num/den at N, in the one form (module docstring)."""
    return _fill(_new(CycloScalar), N, num, den)


class CycloScalar:
    """An element of Q(zeta_N), stored at its least conductor N.

    num holds phi(N) integer numerators over the common denominator
    den > 0, with gcd(den, *num) == 1 (zero is (0,), 1 at N = 1).
    """

    __slots__ = ("N", "num", "den")

    def __init__(self, N: int, coeffs: Iterable[Fraction | int | str]):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        if len(num) != _phi(N):
            num = _reduce(N, num)
        _fill(self, N, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as reduced fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(q, N: int = 1) -> "CycloScalar":
        """q, at conductor 1 in every Q(zeta_N): N names the field and does
        not change the stored form."""
        if type(q) is int:
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        return _make(1, (num,), den)

    @staticmethod
    def zero() -> "CycloScalar":
        return CycloScalar.from_rational(0)

    @staticmethod
    def one() -> "CycloScalar":
        return CycloScalar.from_rational(1)

    @staticmethod
    def root_of_unity(N: int, e: int = 1) -> "CycloScalar":
        """zeta_N^e as an element of Q(zeta_N)."""
        e %= N
        raw = [0] * (e + 1)
        raw[e] = 1
        return _make(N, _reduce(N, raw), 1)

    # -- conductor handling ------------------------------------------------

    def lift(self, M: int) -> list[int]:
        """The numerators over den of self rewritten at M, N | M
        (zeta_N = zeta_M^(M/N))."""
        if M % self.N != 0:
            raise DomainError(f"cannot lift conductor {self.N} into {M}")
        return _lifted(self.N, self.num, M)

    def _pair(self, other: "CycloScalar") -> tuple:
        """(N, self's numerators, other's) at N = lcm of the conductors; a
        rational is (q, 0, ...) there without a lift."""
        N = lcm(self.N, other.N)
        a, b = self.num, other.num
        if self.N != N:
            a = a + (0,) * (len(b) - 1) if self.N == 1 else self.lift(N)
        if other.N != N:
            b = b + (0,) * (len(a) - 1) if other.N == 1 else other.lift(N)
        return N, a, b

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycloScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if self.N == 1 == other.N:
            (x,), (y,) = self.num, other.num
            if da == db:
                return _make(1, (x + y,), da)
            return _make(1, (x * db + y * da,), da * db)
        N, x, y = self._pair(other)
        if da == db:
            return _make(N, [s + t for s, t in zip(x, y)], da)
        return _make(N, [s * db + t * da for s, t in zip(x, y)], da * db)

    __radd__ = __add__

    def __neg__(self):
        s = _new(CycloScalar)
        _set_N(s, self.N)
        _set_num(s, tuple(-x for x in self.num))
        _set_den(s, self.den)
        return s

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """self * other through _product's memo (module docstring)."""
        if type(other) is not CycloScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _product(self.N, self.num, self.den, other.N, other.num, other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse: 1/q for a rational q, else by the norm.

        sigma_k (k prime to N) sends zeta to zeta^k, and num times the
        product of its phi(N) - 1 conjugates sigma_k(num), k != 1, is the
        norm of num, a nonzero integer; so the inverse is den times that
        product over the norm (the adjugate column of multiplication by num
        over its determinant).  An irrational value has N > 2, where the
        field is CM: its conjugates pair off into |sigma(num)|^2 and the
        norm is positive.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        N, num, den = self.N, self.num, self.den
        if N == 1:
            q = num[0]
            if q < 0:
                q, den = -q, -den
            return _make(1, (den,), q)
        adj = None
        for k in range(2, N):
            if gcd(k, N) == 1:
                raw = [0] * N
                for j, c in enumerate(num):
                    raw[j * k % N] += c
                conj = _reduce(N, raw)
                adj = conj if adj is None else _times(N, adj, conj)
        norm = _times(N, num, adj)
        if any(norm[1:]):
            raise ArithmeticError("norm of a nonzero value is not rational")
        return _make(N, [den * x for x in adj], norm[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = CycloScalar.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if type(other) is not CycloScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self.N == other.N and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        # a rational hashes as the int or Fraction it equals
        if self.N == 1:
            q = self.num[0]
            return hash(q if self.den == 1 else Fraction(q, self.den))
        return hash((self.N, self.num, self.den))

    # -- serialization -----------------------------------------------------

    def to_string(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body}@{self.N}"

    @staticmethod
    def from_string(text: str) -> "CycloScalar":
        if not isinstance(text, str):
            raise TypeError("a scalar is a string such as '1/2@4', "
                            f"got {text!r}")
        body, sep, n_part = text.rpartition("@")
        if not sep:
            raise DomainError(f"missing conductor suffix in {text!r}")
        N = _literal(int, n_part, text)
        if N < 1:
            raise DomainError(f"conductor {N} in {text!r} is not positive")
        if N > MAX_CONDUCTOR:
            raise CapacityError(f"conductor {N} in {text!r} exceeds the supported "
                                f"maximum {MAX_CONDUCTOR}")
        coeffs = [Fraction(0)] * _phi(N)
        body = body.strip()
        if body != "0":
            for term in body.split(" + "):
                term = term.strip()
                if "*z^" in term:
                    c, _, k = term.partition("*z^")
                    k = _literal(int, k, text)
                elif term.endswith("*z"):
                    c, k = term[:-2], 1
                else:
                    c, k = term, 0
                if not 0 <= k < len(coeffs):
                    raise DomainError(f"exponent {k} in {text!r} is outside "
                                      f"[0, {len(coeffs)}) for conductor {N}")
                coeffs[k] += _literal(Fraction, c, text)
        return CycloScalar(N, coeffs)

    def __repr__(self):
        return f"CycloScalar({self.to_string()!r})"


@cache
def roots_of_unity(N: int) -> tuple:
    """(zeta_N^0, ..., zeta_N^(N - 1)), built once per N."""
    return tuple(CycloScalar.root_of_unity(N, e) for e in range(N))


_set_N = CycloScalar.N.__set__
_set_num = CycloScalar.num.__set__
_set_den = CycloScalar.den.__set__


def _lifted(N: int, num, M: int) -> list[int]:
    """The numerators num at conductor N rewritten at M, N | M."""
    step = M // N
    raw = [0] * ((len(num) - 1) * step + 1)
    raw[::step] = num
    return _reduce(M, raw)


def _times(N: int, x, y) -> list[int]:
    """The numerators x * y at N, reduced mod Phi_N but not descended."""
    raw = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                if b:
                    raw[j] += a * b
    return _reduce(N, raw)


@lru_cache(maxsize=1 << 16)
def _product(aN, anum, aden, bN, bnum, bden) -> CycloScalar:
    """The product of anum/aden at aN and bnum/bden at bN (module docstring)."""
    if aN == 1:
        return _make(bN, [anum[0] * y for y in bnum], aden * bden)
    if bN == 1:
        return _make(aN, [bnum[0] * x for x in anum], aden * bden)
    if aN != bN:
        M = lcm(aN, bN)
        aN, anum, bnum = M, _lifted(aN, anum, M), _lifted(bN, bnum, M)
    return _make(aN, _times(aN, anum, bnum), aden * bden)


def _literal(kind, part, text):
    """kind(part) for a number inside the scalar string text."""
    try:
        return kind(part)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"malformed scalar {text!r}") from None


def _coerce(x):
    if isinstance(x, CycloScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloScalar.from_rational(x)
    return NotImplemented
