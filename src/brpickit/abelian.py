"""Finite abelian groups, their characters, and the pairing.

A group is a list of cyclic factor orders (kept exactly as given, never
renormalized to a divisor chain).  Elements and characters are coordinate
vectors against those factors; the dual group uses the same factors, with
the i-th character generator dual to the i-th group generator.  The pairing
is returned as an integer exponent e mod N (N the group exponent), meaning
the scalar value is zeta_N^e.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

from .cyclo import CycloScalar
from .errors import DomainError


class FinAbGroup:
    __slots__ = ("factors", "exponent")

    def __init__(self, factors):
        factors = tuple(factors)
        if any(type(f) is not int or f < 1 for f in factors):
            raise DomainError(
                f"cyclic factor orders must be integers >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "exponent", lcm(*factors) if factors else 1)

    def __setattr__(self, name, value):
        raise AttributeError("FinAbGroup is immutable")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(("FinAbGroup", self.factors))

    def __repr__(self):
        return f"FinAbGroup({list(self.factors)})"

    # -- element/character constructors -----------------------------------

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, self._normalize(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generator(self, i: int) -> "GroupElement":
        coords = [0] * self.rank
        coords[i] = 1 % self.factors[i]
        return GroupElement(self, tuple(coords))

    def character(self, exps) -> "Character":
        return Character(self, self._normalize(exps))

    def _normalize(self, coords) -> tuple:
        coords = tuple(coords)
        for c in coords:
            if type(c) is not int:
                raise DomainError(f"coordinates must be integers, got {c!r}")
        if len(coords) != self.rank:
            raise DomainError(
                f"coordinate vector of length {len(coords)} for group of rank {self.rank}")
        return tuple(c % f for c, f in zip(coords, self.factors))

    def elements(self):
        for coords in itertools.product(*(range(f) for f in self.factors)):
            yield GroupElement(self, coords)

    def to_json(self) -> dict:
        return {"factors": list(self.factors)}


@dataclass(frozen=True)
class GroupElement:
    parent: FinAbGroup
    coords: tuple

    def __repr__(self):
        return f"GroupElement{self.coords}"


@dataclass(frozen=True)
class Character:
    parent: FinAbGroup
    exps: tuple

    def __repr__(self):
        return f"Character{self.exps}"


def _vec(x):
    if isinstance(x, GroupElement):
        return x.coords
    if isinstance(x, Character):
        return x.exps
    raise DomainError(f"expected a group element or character, got {type(x).__name__}")


def _same_kind(x, coords):
    if isinstance(x, GroupElement):
        return GroupElement(x.parent, coords)
    return Character(x.parent, coords)


def add(a, b):
    if a.parent != b.parent or type(a) is not type(b):
        raise DomainError("operands live in different groups")
    va, vb = _vec(a), _vec(b)
    return _same_kind(a, tuple((x + y) % f for x, y, f in zip(va, vb, a.parent.factors)))


def neg(a):
    return _same_kind(a, tuple((-x) % f for x, f in zip(_vec(a), a.parent.factors)))


def order_of(a) -> int:
    fs = a.parent.factors
    return lcm(*(f // gcd(f, c) for c, f in zip(_vec(a), fs))) if fs else 1


def direct_sum(G: FinAbGroup, H: FinAbGroup) -> FinAbGroup:
    return FinAbGroup(G.factors + H.factors)


def dual_group(G: FinAbGroup) -> FinAbGroup:
    # Ĝ ≅ G with the i-th character generator dual to the i-th group generator.
    return FinAbGroup(G.factors)


def pair(chi: Character, g: GroupElement) -> int:
    """Exponent e mod N with <chi, g> = zeta_N^e, N the group exponent."""
    if not isinstance(chi, Character) or not isinstance(g, GroupElement):
        raise DomainError("pair(chi, g) wants a character and a group element")
    if chi.parent != g.parent:
        raise DomainError("character and element live in different groups")
    G = g.parent
    N = G.exponent
    return sum(e * c * (N // f) for e, c, f in zip(chi.exps, g.coords, G.factors)) % N


def pair_value(chi: Character, g: GroupElement) -> CycloScalar:
    """The pairing as an exact root of unity in Q(zeta_N)."""
    return CycloScalar.root_of_unity(g.parent.exponent, pair(chi, g))


# -- congruence systems -----------------------------------------------------

def solve(factors, rows):
    """Solve a_1 x_1 + ... + a_s x_s = c (mod m), one row (a, c, m) each,
    over x in Z/f_1 + ... + Z/f_s, f = factors; m must divide every a_j f_j.
    Returns (first, kernel, order): the least solution in lexicographic
    order of reduced coordinates, or None; and nonzero generators of the
    solutions with every c = 0, a subgroup of that order.

    With a slack column per row, the (a.x - c t + m k, t, x) over integers
    form a lattice whose zero-slack part is the lattice L of the (t, x) with
    a.x = c t (mod m) on every row.  L holds M e_t, M = lcm(m), and each
    f_j e_j, so entries stay reduced by those (and by m in slack columns).
    Its Hermite form, slack columns first, ends in L's own: rows h_t, h_1,
    ..., h_s, pivots d_t, d_1, ..., d_s.  The x-parts of h_1..h_s span the
    kernel's lattice K, which holds each f_j e_j, so the kernel has order
    prod f_j / prod d_j.  A solution exists iff d_t = 1, and the solutions
    are then x_0 + K, x_0 the x-part of h_t.

    Lemma: reducing x_0's j-th entry into [0, d_j) by h_j, for j = 1, ...,
    s in turn, gives the least solution.  The solutions agreeing with it
    before coordinate j are x_0 + k, k in K with j - 1 leading entries 0
    mod f, so (less multiples of the f_i e_i) in the span of h_j, ..., h_s,
    whose j-th entries are the multiples of d_j; d_j divides f_j, and later
    rows leave entries before j alone.
    """
    fs, r, s = tuple(factors), len(rows), len(factors)
    mods = [m for _, _, m in rows] + [lcm(*(m for _, _, m in rows))] + list(fs)
    pending = [[(-c if i < 0 else a[i]) % m for a, c, m in rows]
               + [int(i == j) % f for j, f in enumerate(mods[r:], -1)]
               for i in range(-1, s)]
    pending += [[m * (i == j) for i in range(r + s + 1)] for j, m in enumerate(mods)]
    H = []
    for col in range(r + s + 1):
        live = [v for v in pending if v[col]]
        pending = [v for v in pending if not v[col]]
        while len(live) > 1:
            p = min(live, key=lambda v: v[col])
            kept = [p]
            for v in live:
                if v is not p:
                    q = v[col] // p[col]
                    v = [x - q * y if j <= col else (x - q * y) % mods[j]
                         for j, (x, y) in enumerate(zip(v, p))]
                    (kept if v[col] else pending).append(v)
            live = kept
        H.append(live[0][r:])
    H = H[r:]
    for j in range(1, s + 1):
        for i in range(j):
            q = H[i][j] // H[j][j]
            H[i] = [x - q * y for x, y in zip(H[i], H[j])]
    kernel = [k for k in (tuple(x % f for x, f in zip(h[1:], fs)) for h in H[1:]) if any(k)]
    return (tuple(H[0][1:]) if H[0][0] == 1 else None, kernel,
            prod(fs) // prod(h[j] for j, h in enumerate(H) if j))
