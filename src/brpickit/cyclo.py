"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is a residue mod Phi_N (the N-th cyclotomic polynomial) with
rational coefficients, i.e. an element of Q(zeta_N) written in the power
basis 1, z, ..., z^(phi(N)-1) where z = zeta_N = exp(2*pi*i/N).  Values at
different conductors interoperate by lifting both to Q(zeta_lcm) exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import DomainError

Rat = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


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


_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Monic integer coefficients of Phi_n, constant term first.

    Computed by dividing x^n - 1 by all Phi_d with d | n, d < n.  The cache
    is filled idempotently, so concurrent/repeated computation is harmless.
    """
    if n < 1:
        raise DomainError(f"conductor must be positive, got {n}")
    cached = _PHI_CACHE.get(n)
    if cached is not None:
        return cached
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in divisors(n):
        if d < n:
            poly = _poly_exact_div(poly, list(cyclotomic_poly(d)))
    result = tuple(poly)
    _PHI_CACHE.setdefault(n, result)
    return _PHI_CACHE[n]


_RED_CACHE: dict[int, tuple[tuple[Fraction, ...], ...]] = {}


def _monomial_reductions(n: int) -> tuple[tuple[Fraction, ...], ...]:
    # Table of x^k mod Phi_n for k = 0 .. 2*phi-2, each as a phi-length tuple.
    cached = _RED_CACHE.get(n)
    if cached is not None:
        return cached
    phi_poly = cyclotomic_poly(n)
    phi = len(phi_poly) - 1
    top = [Fraction(-c) for c in phi_poly[:phi]]  # x^phi = -(lower part)
    rows: list[tuple[Fraction, ...]] = []
    for k in range(phi):
        row = [_F0] * phi
        row[k] = _F1
        rows.append(tuple(row))
    current = list(top)
    rows.append(tuple(current))
    for _ in range(phi - 2):
        shifted = [_F0] + current[:-1]
        overflow = current[-1]
        if overflow:
            shifted = [s + overflow * t for s, t in zip(shifted, top)]
        current = shifted
        rows.append(tuple(current))
    result = tuple(rows)
    _RED_CACHE.setdefault(n, result)
    return _RED_CACHE[n]


def _reduce(n: int, coeffs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    # Reduce an arbitrary-degree coefficient list mod Phi_n.
    phi = euler_phi(n)
    out = [_F0] * phi
    table = _monomial_reductions(n)
    pending = list(coeffs)
    # Fold down from the top so every monomial lands inside the table range.
    for k in range(len(pending) - 1, -1, -1):
        c = pending[k]
        if not c:
            continue
        if k < phi:
            out[k] += c
        elif k <= 2 * phi - 2:
            row = table[k]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
        else:
            # x^k = x^(k-phi) * x^phi; push down using the top reduction row.
            row = table[phi]
            for j in range(phi):
                if row[j]:
                    pending[k - phi + j] += c * row[j]
        pending[k] = _F0
    return tuple(out)


class CycloScalar:
    """An element of Q(zeta_N), stored canonically mod Phi_N."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: Iterable[Fraction | int | str]):
        coeffs = tuple(Fraction(c) for c in coeffs)
        phi = euler_phi(N)
        if len(coeffs) != phi:
            coeffs = _reduce(N, coeffs)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(q, N: int = 1) -> "CycloScalar":
        phi = euler_phi(N)
        coeffs = [_F0] * phi
        coeffs[0] = Fraction(q)
        return CycloScalar(N, coeffs)

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
        coeffs = [_F0] * (e + 1)
        coeffs[e] = _F1
        return CycloScalar(N, coeffs)

    # -- conductor handling ------------------------------------------------

    def lift(self, M: int) -> "CycloScalar":
        """Rewrite in Q(zeta_M) for N | M (zeta_N = zeta_M^(M/N))."""
        if M == self.N:
            return self
        if M % self.N != 0:
            raise DomainError(f"cannot lift conductor {self.N} into {M}")
        step = M // self.N
        raw = [_F0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                raw[i * step] = c
        return CycloScalar(M, _reduce(M, raw))

    def _pair(self, other: "CycloScalar") -> tuple["CycloScalar", "CycloScalar"]:
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.lift(M), other.lift(M)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return CycloScalar(a.N, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.N, tuple(-x for x in self.coeffs))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        phi = len(a.coeffs)
        raw = [_F0] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    raw[i + j] += x * y
        return CycloScalar(a.N, _reduce(a.N, raw))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse via extended gcd with Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.N)]
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [_F0], [_F1]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 = gcd = s_prev*Phi + s0*self; Phi_N irreducible => gcd is a constant.
        r0 = _poly_trim(r0)
        if len(r0) != 1:
            raise ArithmeticError("gcd with Phi_N not constant; Phi_N reducible?")
        c = r0[0]
        return CycloScalar(self.N, _reduce(self.N, [x / c for x in s0]))

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
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

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
        body, sep, n_part = text.rpartition("@")
        if not sep:
            raise DomainError(f"missing conductor suffix in {text!r}")
        N = int(n_part)
        coeffs = [_F0] * euler_phi(N)
        body = body.strip()
        if body != "0":
            for term in body.split(" + "):
                term = term.strip()
                if "*z^" in term:
                    c, k = term.split("*z^")
                    k = int(k)
                elif term.endswith("*z"):
                    c, k = term[:-2], 1
                else:
                    c, k = term, 0
                coeffs[k] += Fraction(c)
        return CycloScalar(N, coeffs)

    def to_json(self) -> dict:
        return {"N": self.N, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "CycloScalar":
        return CycloScalar(int(obj["N"]), [Fraction(c) for c in obj["coeffs"]])

    def __repr__(self):
        return f"CycloScalar({self.to_string()!r})"


def _coerce(x):
    if isinstance(x, CycloScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloScalar.from_rational(x)
    return NotImplemented


# -- small exact polynomial helpers (low degree first, Fraction coeffs) ----

def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i] if i else [_F0]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [_F0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _poly_mul(a, b):
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    num = list(num)
    den = _poly_trim(list(den))
    dd = len(den) - 1
    lead = den[-1]
    if len(_poly_trim(num)) - 1 < dd:
        return [_F0], num
    quot = [_F0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return quot, _poly_trim(num)
