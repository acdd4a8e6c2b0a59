"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is a residue mod Phi_N (the N-th cyclotomic polynomial) with
rational coefficients, i.e. an element of Q(zeta_N) written in the power
basis 1, z, ..., z^(phi(N)-1) where z = zeta_N = exp(2*pi*i/N).

Representation: a conductor N, a tuple num of phi(N) integer numerators
and one common denominator den > 0, in lowest terms (gcd(den, *num) == 1;
zero is (0, ...), 1).  At a fixed N this form is canonical, so equality is
a tuple comparison.  phi(N) and the table of x^k mod Phi_N are cached per
N; Phi_N is monic over Z, so the table is integral and reduction, products
and lifts run on ints, with one gcd per result.  The stored N is kept as
computed (to_string prints it), so equal values may carry different
conductors.  Fractions appear only at the boundary (the constructor,
coeffs, from_rational and from_string); all arithmetic, the inverse
included, runs on ints.  The inverse of a non-rational value is taken
through its norm, at phi(N) - 1 products whatever the value.

Products are memoized.  a * b looks up _product, an lru_cache of at most
2^16 entries keyed on both operands' (N, num, den); that form is
canonical at a fixed N and all a product reads, so a hit is the scalar the
arithmetic gives, conductor included (2@1 x 3@1 is 6@1, 2@4 x 3@1 is 6@4).
The tables built over these scalars hold mostly +-zeta^k, so most products
repeat.  inv bypasses the memo: the conjugates of its norm never repeat,
and at a large conductor each would pin a phi(N)-sized entry.

Values at different conductors interoperate by lifting both to
Q(zeta_lcm) exactly.  Fast path: when one operand is rational (no
coefficient beyond the constant term) and its conductor divides the
other's, its lift is (q, 0, ...), so * scales the other operand's
numerators and + shifts its constant term without lifting; the result
conductor is still lcm(N_a, N_b).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm
from typing import Iterable

from .errors import CapacityError, DomainError

_F0 = Fraction(0)

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


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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


_new = object.__new__


def _make(N: int, num, den: int) -> "CycloScalar":
    """The scalar num/den at N, brought to lowest terms (den > 0)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    s = _new(CycloScalar)
    _set_N(s, N)
    _set_num(s, tuple(num))
    _set_den(s, den)
    return s


class CycloScalar:
    """An element of Q(zeta_N), stored canonically mod Phi_N.

    num holds phi(N) integer numerators over the common denominator
    den > 0, with gcd(den, *num) == 1 (zero is (0, ...), 1).
    """

    __slots__ = ("N", "num", "den")

    def __init__(self, N: int, coeffs: Iterable[Fraction | int | str]):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        if len(num) != _phi(N):
            num = _reduce(N, num)
        g = gcd(den, *num)
        _set_N(self, N)
        _set_num(self, tuple(x // g for x in num))
        _set_den(self, den // g)

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
        if type(q) is int:
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        return _make(N, (num,) + (0,) * (_phi(N) - 1), den)

    @staticmethod
    def zero(N: int = 1) -> "CycloScalar":
        return CycloScalar.from_rational(0, N)

    @staticmethod
    def one(N: int = 1) -> "CycloScalar":
        return CycloScalar.from_rational(1, N)

    @staticmethod
    def root_of_unity(N: int, e: int = 1) -> "CycloScalar":
        """zeta_N^e as an element of Q(zeta_N)."""
        e %= N
        raw = [0] * (e + 1)
        raw[e] = 1
        return _make(N, _reduce(N, raw), 1)

    # -- conductor handling ------------------------------------------------

    def lift(self, M: int) -> "CycloScalar":
        """Rewrite in Q(zeta_M) for N | M (zeta_N = zeta_M^(M/N))."""
        if M == self.N:
            return self
        if M % self.N != 0:
            raise DomainError(f"cannot lift conductor {self.N} into {M}")
        return _make(M, _lifted(self.N, self.num, M), self.den)

    def _pair(self, other: "CycloScalar") -> tuple["CycloScalar", "CycloScalar"]:
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.lift(M), other.lift(M)

    # -- arithmetic --------------------------------------------------------
    # A rational operand (nothing beyond the constant term) whose conductor
    # divides the other's lifts to (q, 0, ...), so it scales or shifts the
    # other operand directly; the result keeps conductor lcm(N_a, N_b).

    def __add__(self, other):
        if type(other) is not CycloScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self, other
        if b.N % a.N == 0 and not any(a.num[1:]):
            a, b = b, a
        elif not (a.N % b.N == 0 and not any(b.num[1:])):
            if a.N != b.N:
                a, b = self._pair(other)
            da, db = a.den, b.den
            if da == db:
                return _make(a.N, [x + y for x, y in zip(a.num, b.num)], da)
            return _make(a.N, [x * db + y * da for x, y in zip(a.num, b.num)],
                         da * db)
        # b is a rational q = b.num[0] / b.den: add it to a's constant term
        da, db = a.den, b.den
        if db == 1:
            return _make(a.N, (a.num[0] + b.num[0] * da,) + a.num[1:], da)
        return _make(a.N, [a.num[0] * db + b.num[0] * da]
                     + [x * db for x in a.num[1:]], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.N, [-x for x in self.num], self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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
        over its determinant).  For N > 2 the field is CM, its conjugates
        pair off into |sigma(num)|^2 and the norm is positive.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        N, num, den = self.N, self.num, self.den
        if not any(num[1:]):
            q = num[0]
            if q < 0:
                q, den = -q, -den
            return _make(N, (den,) + num[1:], q)
        adj = CycloScalar.one(N)
        for k in range(2, N):
            if gcd(k, N) == 1:
                raw = [0] * N
                for j, c in enumerate(num):
                    raw[j * k % N] += c
                adj = _fresh_product(N, adj.num, adj.den, N, _reduce(N, raw), 1)
        norm = _fresh_product(N, num, 1, N, adj.num, adj.den)
        if any(norm.num[1:]):
            raise ArithmeticError("norm of a nonzero value is not rational")
        return _make(N, [den * x for x in adj.num], norm.num[0])

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
        result = CycloScalar.one(self.N)
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
        a, b = self, other
        if a.N != b.N:
            a_flat, b_flat = not any(a.num[1:]), not any(b.num[1:])
            if a_flat or b_flat:
                # a rational has only a constant term at every conductor
                return (a_flat and b_flat and a.den == b.den
                        and a.num[0] == b.num[0])
            a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # semantic equality crosses conductors; do not hash

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
        coeffs = [_F0] * _phi(N)
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


_set_N = CycloScalar.N.__set__
_set_num = CycloScalar.num.__set__
_set_den = CycloScalar.den.__set__


def _lifted(N: int, num, M: int) -> list[int]:
    """The numerators num at conductor N rewritten at M, N | M."""
    step = M // N
    raw = [0] * ((len(num) - 1) * step + 1)
    raw[::step] = num
    return _reduce(M, raw)


@lru_cache(maxsize=1 << 16)
def _product(aN, anum, aden, bN, bnum, bden) -> CycloScalar:
    """The product of anum/aden at aN and bnum/bden at bN (module docstring)."""
    if bN % aN == 0 and not any(anum[1:]):
        # a is a rational q = anum[0] / aden: scale b's numerators by it
        q = anum[0]
        return _make(bN, [q * y for y in bnum], aden * bden)
    if aN % bN == 0 and not any(bnum[1:]):
        q = bnum[0]
        return _make(aN, [q * x for x in anum], aden * bden)
    if aN != bN:
        M = lcm(aN, bN)
        aN, anum, bnum = M, _lifted(aN, anum, M), _lifted(bN, bnum, M)
    raw = [0] * (2 * len(anum) - 1)
    for i, x in enumerate(anum):
        if x:
            for j, y in enumerate(bnum, i):
                if y:
                    raw[j] += x * y
    return _make(aN, _reduce(aN, raw), aden * bden)


# the arithmetic without the memo, for inv (module docstring)
_fresh_product = _product.__wrapped__


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
