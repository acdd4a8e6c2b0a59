"""Independent brute-force reference computations for the test suite.

Written from scratch against the raw definitions using only the standard
library — nothing here imports the package under test, so these results can
serve as oracles for it.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


def orth_brute_force(factors):
    """All invertible matrices on G+G^ preserving <chi,g>, by exhaustion.

    factors: cyclic factor orders of G.  A matrix is a tuple of rows; row i
    holds the image coordinates of the i-th generator of G+G^ (G coordinates
    first, dual coordinates second), entries reduced mod the factor of the
    coordinate they land in.
    """
    n = len(factors)
    dfac = list(factors) + list(factors)
    N = lcm(*factors)
    order = prod(dfac)
    elements = list(itertools.product(*[range(f) for f in dfac]))

    def q(x):
        # exponent of <chi, g> for x = (g, chi)
        return sum(x[i] * x[n + i] * (N // dfac[i]) for i in range(n)) % N

    def apply(M, x):
        out = [0] * (2 * n)
        for i, c in enumerate(x):
            if c:
                row = M[i]
                for j in range(2 * n):
                    out[j] += c * row[j]
        return tuple(o % f for o, f in zip(out, dfac))

    rows_by_gen = []
    for i in range(2 * n):
        m = dfac[i]
        rows_by_gen.append([x for x in elements
                            if all((m * c) % f == 0 for c, f in zip(x, dfac))])
    results = []
    for rows in itertools.product(*rows_by_gen):
        M = tuple(rows)
        if not all(q(apply(M, x)) == q(x) for x in elements):
            continue
        if len({apply(M, x) for x in elements}) == order:
            results.append(M)
    return results


def apply_matrix(factors, M, x):
    """The image of x in G+G^ under the matrix M (orth_brute_force encoding)."""
    dfac = list(factors) + list(factors)
    out = [0] * len(dfac)
    for i, c in enumerate(x):
        if c:
            for j in range(len(dfac)):
                out[j] += c * M[i][j]
    return tuple(o % f for o, f in zip(out, dfac))


def compose_matrices(factors, A, B):
    """Matrix of x -> A(B(x)) in the same row encoding as orth_brute_force."""
    n = len(factors)
    rows = []
    for i in range(2 * n):
        e = [0] * (2 * n)
        e[i] = 1
        rows.append(apply_matrix(factors, A, apply_matrix(factors, B, tuple(e))))
    return tuple(rows)


def admissible_matrices(factors, u, matrices):
    """The matrices alpha with (u, u) in U_alpha = {(alpha_1(x), g_x)}, in
    their given order: some x = (u, chi) has alpha_1(x) = u."""
    n = len(factors)
    u = tuple(u)
    chis = list(itertools.product(*[range(f) for f in factors]))
    return [M for M in matrices
            if any(apply_matrix(factors, M, u + chi)[:n] == u for chi in chis)]


def stabilizer_elements(factors, M):
    """S = {z : (z, z) in U_alpha} for the alpha with matrix M, the z with
    alpha_1(z, chi) = z for some chi, as coordinate tuples in order."""
    n = len(factors)
    els = list(itertools.product(*[range(f) for f in factors]))
    return [z for z in els
            if any(apply_matrix(factors, M, z + chi)[:n] == z for chi in els)]


def _stabilizer_exponents(factors, chars, M):
    """(e, N) for the alpha with matrix M: N is the exponent of G, and e
    lists, for each z in S (stabilizer_elements), the exponents of
    chi_i(z) in zeta_N."""
    N = lcm(*factors)
    S = stabilizer_elements(factors, M)
    e = [[sum(c * g * (N // f) for c, g, f in zip(chi, z, factors)) % N
          for chi in chars] for z in S]
    return e, N


def describe_dims(factors, chars, M):
    """(A_dim, C_dim) of the alpha with matrix M over the module whose
    characters have exponent tuples chars.  A_dim counts the (i, j) with
    chi_i = chi_j on S.  C_dim counts the i <= j with chi_i chi_j = 1 on S,
    the dimension of the symmetric forms supported there: for each
    invertible S-equivariant A, C -> A^t C maps the C supported there with
    C^t A symmetric onto those forms."""
    e, N = _stabilizer_exponents(factors, chars, M)
    m = len(chars)
    a_dim = sum(all(ez[i] == ez[j] for ez in e)
                for i in range(m) for j in range(m))
    c_dim = sum(all((ez[i] + ez[j]) % N == 0 for ez in e)
                for i in range(m) for j in range(i, m))
    return a_dim, c_dim


def describe_c_kernel_dim(factors, chars, M, scalar):
    """C_dim of the alpha with matrix M as a kernel dimension: the C : V ->
    V* supported where chi_i chi_j = 1 on S with C^t A0 = A0^t C, for one
    generic invertible S-equivariant A0.  A0 holds distinct primes at the
    positions with chi_i = chi_j on S, each diagonal one raised by m times
    the largest, so A0 is strictly diagonally dominant and thus invertible.
    scalar(k) is the field element of the integer k."""
    e, N = _stabilizer_exponents(factors, chars, M)
    m = len(chars)
    primes = []
    p = 2
    while len(primes) < m * m:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    big = m * primes[-1] if primes else 0
    A0 = [[scalar(0)] * m for _ in range(m)]
    k = 0
    for i in range(m):
        for j in range(m):
            if all(ez[i] == ez[j] for ez in e):
                A0[i][j] = scalar(primes[k] + (big if i == j else 0))
                k += 1
    cols = [(i, j) for i in range(m) for j in range(m)
            if all((ez[i] + ez[j]) % N == 0 for ez in e)]
    # (C^t A0)_rs - (C^t A0)_sr = sum_k C_kr A0_ks - C_ks A0_kr, for r < s
    rows = []
    for r in range(m):
        for s in range(r + 1, m):
            row = {}
            for c, (k, j) in enumerate(cols):
                if j == r:
                    row[c] = row.get(c, scalar(0)) + A0[k][s]
                if j == s:
                    row[c] = row.get(c, scalar(0)) - A0[k][r]
            rows.append(row)
    return len(null_space(rows, len(cols), scalar(0), scalar(1)))


def greedy_suite(factors, admissible):
    """The product-closed subgroup of the admissible matrices that seeded
    suites draw from, by composing matrices.

    Starting from the identity, each admissible matrix (in the given order)
    not yet in the subgroup joins the generators when the subgroup they
    generate stays inside the admissible set.  The generated subgroup is
    grown by right multiplication with the generators, stopping at the
    first product outside the set.  Returns the members in the given order.
    """
    dfac = list(factors) + list(factors)
    ident = tuple(tuple(1 % f if i == j else 0 for j, f in enumerate(dfac))
                  for i in range(len(dfac)))
    members = set(admissible)

    def closure(gens):
        seen = {ident}
        frontier = [ident]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = compose_matrices(factors, x, g)
                if y not in members:
                    return None
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    subgroup = {ident}
    gens = []
    for a in admissible:
        if a in subgroup:
            continue
        grown = closure(gens + [a])
        if grown is not None:
            gens.append(a)
            subgroup = grown
    return [a for a in admissible if a in subgroup]


def is_abelian(factors, matrices):
    return all(compose_matrices(factors, A, B) == compose_matrices(factors, B, A)
               for A, B in itertools.combinations(matrices, 2))


# -- dense reference for the diagonal G x G action on matrix data ---------
# Entries only need + and *; root(k) returns zeta_N^k in the caller's scalar
# type and zero its zero.  This is the computation the package replaced by
# exponent congruences, kept here as the reference for them.

def dense_product(A, B, zero):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), zero)
             for j in range(len(B[0]))] for i in range(len(A))]


def diag_matrix(exps, root, zero):
    n = len(exps)
    return [[root(exps[i]) if i == j else zero for j in range(n)]
            for i in range(n)]


def dense_translate(T, left_exps, right_exps, root, zero):
    """diag(root(left_exps)) . T . diag(root(right_exps)), densely."""
    T = [list(r) for r in T]
    left = diag_matrix(left_exps, root, zero)
    right = diag_matrix(right_exps, root, zero)
    return dense_product(left, dense_product(T, right, zero), zero)


def dense_moved_to_itself(T, pairs, exps, root, zero):
    """D_{-x} T D_y == T for every (x, y) in pairs; exps(g) lists the
    exponents e_i(g) by which g acts."""
    T = [list(r) for r in T]
    return all(dense_translate(T, [-e for e in exps(x)], exps(y), root,
                               zero) == T
               for x, y in pairs)


def dense_equiv(T, Tt, elements, exps, root, zero):
    """First (x, y) in elements x elements with D_x T D_{-y} == T', as
    (found, witness)."""
    Tt = [list(r) for r in Tt]
    for x in elements:
        for y in elements:
            if dense_translate(T, exps(x), [-e for e in exps(y)], root,
                               zero) == Tt:
                return True, (x, y)
    return False, None


# -- dense reference for the diagonal action on subspaces and forms -------
# The package's earlier computations, replaced by pivot-exponent congruences.
# W is the caller's subspace (ambient_dim, basis, dim, equals), whose type
# builds a reduced subspace from rows; exps lists the exponents
# e_i by which one group element acts, root(k) is zeta_N^k, zero the zero.

def dense_act(exps, v, root):
    """g.v: entry i of v times zeta^(e_i)."""
    return [root(e) * x for e, x in zip(exps, v)]


def dense_moved(W, exps, root):
    """g.W: the span of the moved basis rows, reduced again."""
    return type(W)(W.ambient_dim, [dense_act(exps, row, root)
                                   for row in W.basis])


def dense_stable(W, exps_list, root):
    """g.W == W for every g, given by its exponents in exps_list."""
    return all(dense_moved(W, e, root).equals(W) for e in exps_list)


def dense_act_matrix(sectors, exps, root, zero, onto=None):
    """Rows: coordinates of g.w_i against the concatenated sector bases of
    onto (default sectors); coords_of raises once g.w_i leaves its sector."""
    onto = sectors if onto is None else onto
    n = sum(S.dim for S in sectors)
    out, off = [], 0
    for S, T in zip(sectors, onto):
        for row in S.basis:
            local = coords_of(T.basis, dense_act(exps, row, root))
            dense = [zero] * n
            dense[off:off + len(local)] = local
            out.append(dense)
        off += S.dim
    return out


def congruence(P, gram, zero):
    """P gram P^t, entry by entry."""
    n = len(P)
    return [[sum((P[i][k] * gram[k][l] * P[j][l] for k in range(n)
                  for l in range(n)), zero) for j in range(n)]
            for i in range(n)]


def dense_invariant(W, gram, exps_list, root, zero):
    """(W stable, form invariant) under every g: the form is tested, with
    P gram P^t == gram, only once W is stable."""
    if not dense_stable(W, exps_list, root):
        return False, False
    gram = [list(r) for r in gram]
    return True, all(congruence(dense_act_matrix([W], e, root, zero), gram,
                                zero) == gram for e in exps_list)


def dense_translation(W, gram, Wt, gram_t, movers, exps, root, zero):
    """First g in movers with g.W == Wt whose form, carried back along g,
    is gram_t, as (found, witness)."""
    gram_t = [list(r) for r in gram_t]
    for g in movers:
        e = exps(g)
        if not dense_moved(W, e, root).equals(Wt):
            continue
        back = dense_act_matrix([Wt], [-k for k in e], root, zero, onto=[W])
        if congruence(back, gram, zero) == gram_t:
            return True, g
    return False, None


# -- the 2-cocycle identity, one scalar product per side per triple --------

def cocycle_ok(elements, factors, psi):
    """psi(a,b) psi(a+b,c) == psi(b,c) psi(a,b+c) for all a, b, c, and no
    value is zero.

    elements: coordinate tuples of a subgroup of Z/f1 x ... (f in factors);
    psi: {(a, b): scalar} over elements x elements, scalars supporting *
    and == (equality must hold across representations of one value).
    """
    def add(x, y):
        return tuple((s + t) % f for s, t, f in zip(x, y, factors))

    if any(v == 0 * v for v in psi.values()):
        return False
    for a in elements:
        for b in elements:
            for c in elements:
                if psi[(a, b)] * psi[(add(a, b), c)] \
                        != psi[(b, c)] * psi[(a, add(b, c))]:
                    return False
    return True


def first_cocycle_failure(elements, factors, exps, N):
    """The first (a, b, c), each running over elements in order, with
    exps[(a,b)] + exps[(a+b,c)] != exps[(b,c)] + exps[(a,b+c)] (mod N), or
    None: the identity above for psi = zeta_N^exps, on exponents."""
    def add(x, y):
        return tuple((s + t) % f for s, t, f in zip(x, y, factors))

    for a, b, c in itertools.product(elements, repeat=3):
        if (exps[(a, b)] + exps[(add(a, b), c)]
                - exps[(b, c)] - exps[(a, add(b, c))]) % N:
            return a, b, c
    return None


# -- a bicharacter from its values on pairs of generators ------------------

def span(gens, factors):
    """{x: c} over the subgroup of Z/f1 x ... (f in factors) generated by
    the coordinate tuples gens: each element x with one coefficient vector
    c, x = sum c_i gens[i], found by breadth-first search from 0."""
    zero = (0,) * len(factors)
    found = {zero: (0,) * len(gens)}
    frontier = [zero]
    while frontier:
        step = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = tuple((s + t) % f for s, t, f in zip(x, g, factors))
                if y not in found:
                    c = found[x]
                    found[y] = c[:i] + (c[i] + 1,) + c[i + 1:]
                    step.append(y)
        frontier = step
    return found


def expand_bicharacter(gens, values, factors, N):
    """{(a, b): e} over the subgroup generated by gens: the exponents
    values[(g, h)] mod N given on pairs of generators, extended
    bilinearly, e = sum_ij c_i d_j values[(gens[i], gens[j])] with c and d
    coefficient vectors of a and b (span)."""
    words = span(gens, factors)
    out = {}
    for a, c in words.items():
        row = [sum(ci * values[(g, h)] for ci, g in zip(c, gens))
               for h in gens]
        for b, d in words.items():
            out[(a, b)] = sum(map(mul, d, row)) % N
    return out


def expand_twist(psi):
    """expand_bicharacter on a twist's exponents at its pairs of generators
    (psi.gens, psi.E), over its pair group, mod psi.N."""
    values = {(g, h): e for g, row in zip(psi.gens, psi.E)
              for h, e in zip(psi.gens, row)}
    return expand_bicharacter(psi.gens, values, psi.pair_group.factors, psi.N)


def bi_additive(elements, factors, exps, N, steps):
    """Whether {(a, b): e} over the subgroup with these elements (coordinate
    tuples mod factors) is additive mod N in each argument along every step:
    e(a + g, b) = e(a, b) + e(g, b) and e(b, a + g) = e(b, a) + e(b, g) for
    all a, b and g in steps.  Along generators that is additivity, by
    induction on word length (g = 0 gives e(0, b) = 0)."""
    def add(x, y):
        return tuple((s + t) % f for s, t, f in zip(x, y, factors))

    return not any((exps[(add(a, g), b)] - exps[(a, b)] - exps[(g, b)]) % N
                   or (exps[(b, add(a, g))] - exps[(b, a)] - exps[(b, g)]) % N
                   for a in elements for b in elements for g in steps)


# -- cyclotomic arithmetic on Fraction coefficients -----------------------
# A value is (N, coeffs) with coeffs the Fraction coefficients of an element
# of Q(zeta_N) in the power basis 1, z, ..., z^(phi(N)-1), reduced mod
# Phi_N.  This is the package's arithmetic before it moved to integer
# numerators over one denominator, kept here as the reference for it.

def cyclotomic_poly(n):
    """Integer coefficients of Phi_n, constant term first."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _div_monic(poly, cyclotomic_poly(d))[0]
    return poly


def _div_monic(num, den):
    """(quotient, remainder) of num by a monic den, low degree first."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return quot, num[:dd]


def cyclo_reduce(N, coeffs):
    phi = cyclotomic_poly(N)
    rem = _div_monic([Fraction(c) for c in coeffs], phi)[1]
    return N, tuple(rem + [Fraction(0)] * (len(phi) - 1 - len(rem)))


def cyclo_lift(value, M):
    N, coeffs = value
    step = M // N
    raw = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for i, c in enumerate(coeffs):
        raw[i * step] = c
    return cyclo_reduce(M, raw)


def cyclo_add(a, b):
    M = lcm(a[0], b[0])
    (_, x), (_, y) = cyclo_lift(a, M), cyclo_lift(b, M)
    return M, tuple(s + t for s, t in zip(x, y))


def cyclo_mul(a, b):
    M = lcm(a[0], b[0])
    (_, x), (_, y) = cyclo_lift(a, M), cyclo_lift(b, M)
    raw = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, s in enumerate(x):
        for j, t in enumerate(y):
            raw[i + j] += s * t
    return cyclo_reduce(M, raw)


def cyclo_inv(value):
    """The inverse of a nonzero value by the extended Euclidean algorithm
    on Fraction polynomials: s * a = gcd(a, Phi_N), a nonzero constant
    because Phi_N is irreducible.  The package inverted this way before it
    moved to the norm."""
    N, coeffs = value
    r0, r1 = [Fraction(c) for c in cyclotomic_poly(N)], list(coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    r0 = _trim(r0)
    assert len(r0) == 1, "gcd with Phi_N is not constant"
    return cyclo_reduce(N, [x / r0[0] for x in s0])


def least_conductor(N, coeffs):
    """The least M | N with the value sum_k coeffs[k] zeta_N^k in Q(zeta_M).

    By Galois theory Q(zeta_M) is the field fixed by H_M, the sigma_k:
    zeta_N -> zeta_N^k with k prime to N and k = 1 mod M.  So M is the
    first divisor of N whose H_M fixes the value, and a subgroup fixes it
    when its generators do.  Scaling by a common denominator keeps the
    test on ints."""
    poly = cyclotomic_poly(N)
    d = len(poly) - 1
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    v = [int(c * den) for c in coeffs] + [0] * (d - len(coeffs))
    powers, row = [], [1] + [0] * (d - 1)  # x^e mod Phi_N, e < N
    for _ in range(N):
        powers.append(row)
        top = row[-1]
        row = [a - top * b for a, b in zip([0] + row[:-1], poly)]

    def fixed(k):
        image = [0] * d
        for j, c in enumerate(v):
            if c:
                for i, t in enumerate(powers[j * k % N]):
                    image[i] += c * t
        return image == v

    units = [k for k in range(1, N + 1) if gcd(k, N) == 1]
    for M in (m for m in range(1, N + 1) if N % m == 0):
        group, gens = {1 % N}, []
        for k in units:
            if k % M == 1 % M and k % N not in group:
                gens.append(k)
                todo = list(group)
                while todo:
                    x = todo.pop() * k % N
                    if x not in group:
                        group.add(x)
                        todo.append(x)
        if all(fixed(k) for k in gens):
            return M


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod(num, den):
    """(quotient, remainder) of num by a nonzero den, low degree first."""
    num, den = list(num), _trim(list(den))
    dd = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / den[-1]
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    return quot, _trim(num[:dd] or [Fraction(0)])


# -- elimination references -------------------------------------------------
# The package's earlier computations, kept as references for the ones that
# replaced them.  They drive the caller's own objects: a subspace has
# ambient_dim, dim and basis, and its type builds a reduced subspace from
# rows; kernel(M) is the null space of M as such a subspace, and zero and
# one the caller's scalars, which need is_zero, inv, + and *.

def dense_rref(M):
    """(rows without zero rows, pivot columns) of M by dense Gauss-Jordan,
    the package's own elimination before every rref ran on its sparse
    engine: per column, the first row at or below the pivot row with a
    nonzero entry is swapped up and scaled by its inverse, and every other
    row with a nonzero entry there is cleared.  ValueError on a ragged M."""
    rows = [list(r) for r in M]
    if not rows:
        return [], []
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows))
                          if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv_p = rows[r][c].inv()
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def solve(A, b, zero):
    """One exact solution x of A x = b, free unknowns 0; ValueError when
    the system is inconsistent.  Gauss-Jordan on [A | b]: per column, the
    first row with a nonzero entry is swapped up and scaled by the inverse
    of its pivot, and every other row r with a nonzero entry f there becomes
    r - f * pivot row, so each entry has the arithmetic history, and the
    conductor, that the package's dense elimination gives it."""
    rows = [list(r) + [c] for r, c in zip(A, b)]
    if not rows:
        return []
    n = len(rows[0]) - 1
    pivots = []
    for c in range(n + 1):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()),
                 None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    if n in pivots:
        raise ValueError("inconsistent linear system")
    x = [zero] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    return x


def coords_of(basis, v):
    """Coefficients of v against a reduced basis: each row's pivot entry of
    what is left of v, that row times it taken off in turn; ValueError when
    anything is left at the end."""
    coeffs = []
    for row in basis:
        f = v[next(i for i, x in enumerate(row) if not x.is_zero())]
        coeffs.append(f)
        if not f.is_zero():
            v = [x - f * y for x, y in zip(v, row)]
    if not all(x.is_zero() for x in v):
        raise ValueError("vector is not in the subspace")
    return coeffs

def intersect(A, B, kernel, zero):
    """A & B, spanned by s.A over the coefficient pairs (s, t) with
    s.A = t.B."""
    n = A.ambient_dim
    if A.dim == 0 or B.dim == 0:
        return type(A)(n, [])
    cols = [list(r) for r in A.basis] + [[-x for x in r] for r in B.basis]
    K = kernel([list(c) for c in zip(*cols)])
    rows = []
    for coeffs in K.basis:
        v = [zero] * n
        for s, row in zip(coeffs[:A.dim], A.basis):
            if not s.is_zero():
                v = [x + s * y for x, y in zip(v, row)]
        rows.append(v)
    return type(A)(n, rows)


def project(S, indices):
    """The image of S under the coordinate projection onto indices."""
    return type(S)(len(indices), [[r[i] for i in indices] for r in S.basis])


def axis_intersection_dims(W, kernel, zero):
    """(dim W & (V+0), dim W & (0+V)) for W inside V+V, by intersection."""
    d = W.ambient_dim // 2
    if d == 0:
        return 0, 0
    axis1 = type(W)(2 * d, [[int(j == i) for j in range(2 * d)]
                            for i in range(d)])
    axis2 = type(W)(2 * d, [[int(j == i + d) for j in range(2 * d)]
                            for i in range(d)])
    return (intersect(W, axis1, kernel, zero).dim,
            intersect(W, axis2, kernel, zero).dim)


def compose_by_intersection(W, Wt, kernel, zero, one):
    """(composite, middles) of the relations W, Wt inside V+V: both are
    embedded in V+V+V, intersected there and projected to the outer blocks,
    and each composite basis row is lifted back by a solve to read off its
    middle coordinate."""
    d = W.ambient_dim // 2
    for S, name in ((W, "left factor"), (Wt, "right factor")):
        if any(axis_intersection_dims(S, kernel, zero)):
            raise ValueError(
                f"witness not unique: {name} meets a coordinate axis")
    n = 3 * d

    def unit(i):
        return [one if j == i else zero for j in range(n)]
    x1 = type(W)(n, [list(r) + [zero] * d for r in W.basis]
                 + [unit(2 * d + i) for i in range(d)])
    x2 = type(W)(n, [[zero] * d + list(r) for r in Wt.basis]
                 + [unit(i) for i in range(d)])
    X = intersect(x1, x2, kernel, zero)
    outer = list(range(d)) + list(range(2 * d, 3 * d))
    composite = project(X, outer)
    if composite.dim != X.dim:
        raise ValueError(
            "witness not unique: middle coordinate is not determined")
    O = [[r[i] for i in outer] for r in X.basis]
    Ot = [list(c) for c in zip(*O)]
    middles = []
    for crow in composite.basis:
        middle = [zero] * d
        for lam, xrow in zip(solve(Ot, crow, zero), X.basis):
            if not lam.is_zero():
                middle = [m + lam * xrow[d + i] for i, m in enumerate(middle)]
        middles.append(middle)
    return composite, middles


def bullet_by_intersection(W, beta, Wt, betat, kernel, zero, one):
    """The form beta . betat on the composite, evaluated through each basis
    row's witness from compose_by_intersection; beta and betat are read
    through form_value and their type builds a form from (space, gram)."""
    composite, middles = compose_by_intersection(W, Wt, kernel, zero, one)
    d = W.ambient_dim // 2
    left = [list(c[:d]) + m for c, m in zip(composite.basis, middles)]
    right = [m + list(c[d:]) for c, m in zip(composite.basis, middles)]
    gram = [[form_value(beta, left[i], left[j], zero)
             + form_value(betat, right[i], right[j], zero)
             for j in range(composite.dim)] for i in range(composite.dim)]
    return type(beta)(composite, gram)


def form_value(beta, v, w, zero):
    """x^T gram y, x and y the coordinates of v and w in the basis of the
    form's space (coords_of on beta.space.basis) and beta.gram.  Zero terms are skipped, so a zero value is zero itself,
    at zero's conductor."""
    x, y = coords_of(beta.space.basis, v), coords_of(beta.space.basis, w)
    total = zero
    for a, row in zip(x, beta.gram):
        for g, b in zip(row, y):
            if not (a.is_zero() or g.is_zero() or b.is_zero()):
                total = total + a * g * b
    return total


def inverse_by_solves(M, one, zero):
    """M^-1 column by column: column j is solve(M, e_j)."""
    n = len(M)
    cols = [solve(M, [one if i == j else zero for i in range(n)], zero)
            for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def hom_images(factors, rows):
    """The image of every element of Z_f1 x ... x Z_fr (itertools.product
    order) under the hom sending the i-th generator to rows[i], each as
    its mixed-radix position in that same order."""
    images = []
    for x in itertools.product(*(range(f) for f in factors)):
        k = 0
        for j, f in enumerate(factors):
            k = k * f + sum(c * row[j] for c, row in zip(x, rows)) % f
        images.append(k)
    return images


def is_bijective(factors, rows):
    """Whether the hom with generator images rows permutes the elements of
    Z_f1 x ... x Z_fr, by listing every image."""
    return len(set(hom_images(factors, rows))) == prod(factors)


def vplusvdual_exponents(vplusv, N):
    """Exponents of an action on V+V* from those on V+V: a pair (x, y)
    acting on V+V as diag(zeta_N^e) acts on V+V* with the second half
    negated mod N, since y acts on V* by the inverse characters."""
    m = len(vplusv) // 2
    return list(vplusv[:m]) + [(-e) % N for e in vplusv[m:]]


def is_orthogonal_pointwise(factors, rows):
    """Orthogonality on G+G^ (factors: those of G, then those of G^; rank
    2n) of the hom with generator images rows, element by element: the
    map is a bijection and keeps q(g, chi) = <chi, g> at every point."""
    n = len(factors) // 2
    N = lcm(*factors[:n])

    def q(c):
        return sum(c[i] * c[n + i] * (N // factors[i]) for i in range(n)) % N

    elements = list(itertools.product(*(range(f) for f in factors)))
    images = hom_images(factors, rows)
    return (len(set(images)) == len(elements)
            and all(q(elements[k]) == q(x) for x, k in zip(elements, images)))


def right_coaction_ok(entries, H, one):
    """Coassociativity and counit of a right coaction keyed (index, host).

    entries[i] maps (k, p) to the coefficient of k x p in rho(i); H is read
    only through H.comult(p) -> {(p1, p2): c} and H.counit(p).  Checks
    (rho x id) rho == (id x Delta) rho and (id x eps) rho(i) == i for every i.
    """
    def addin(acc, key, c):
        v = acc.get(key)
        v = c if v is None else v + c
        if v.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = v

    for i, lam in enumerate(entries):
        left, right, cu = {}, {}, {}
        for (k, p), c in lam.items():
            for (p1, p2), c2 in H.comult(p).items():
                addin(left, (k, p1, p2), c * c2)
            for (k2, p2), c2 in entries[k].items():
                addin(right, (k2, p2, p), c * c2)
            e = H.counit(p)
            if not e.is_zero():
                addin(cu, k, e * c)
        if left != right or cu != {i: one}:
            return False
    return True


# -- comodule algebra K by rewriting every word -------------------------------

_SECTOR_SIGN = {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): 1, (1, 2): -1,
                (2, 3): -1}


def host_mono_mul(H, i, j, scalar):
    """The basis product v_S1 g1 . v_S2 g2 of a host, by the per-pair
    formula: the sign of moving S2 past S1 (a double loop over the pairs
    a > b in one block), the roots chi_b(g1) = zeta_N^pair multiplied in
    one generator b of S2 at a time onto +-1 at conductor 1, and the
    coordinatewise sum g1 + g2.  Reads H only through basis, blocks, chars,
    index and group.factors; scalar is the scalar class."""
    S1, g1 = H.basis[i]
    S2, g2 = H.basis[j]
    if set(S1) & set(S2):
        return {}
    sign = 1
    for b in S2:
        for a in S1:
            if a > b and H.blocks[a] == H.blocks[b]:
                sign = -sign
    factors = H.group.factors
    N = lcm(*factors) if factors else 1
    c = scalar.one() if sign > 0 else -scalar.one()
    for b in S2:
        e = sum(x * y * (N // f)
                for x, y, f in zip(H.chars[b].exps, g1.coords, factors))
        c = c * scalar.root_of_unity(N, e % N)
    g = tuple((x + y) % f for x, y, f in zip(g1.coords, g2.coords, factors))
    return {H.index[(tuple(sorted(S1 + S2)), g)]: c}


def rewrite_K_tables(data, host, scalar):
    """(mult, coaction) of K rewritten word by word, as the package built it
    before its product table was assembled from factors.

    Each product w_S1 e_f1 . w_S2 e_f2 is brought to normal form by the
    leftmost-first rewriting of the presentation (e_f e_h = psi(f,h) e_fh,
    e_f w = (f.w) e_f, the beta-commutator rules) on the whole word, and the
    coaction of w_S e_f is the product of its generators' coactions, left to
    right.  data (a compatible datum) and host (its doubled host) are read
    only through their attributes and methods; scalar is the scalar class,
    used for one(), root_of_unity(N, e) and from_rational(q).
    """
    one = scalar.one()
    half = scalar.from_rational(Fraction(1, 2))

    def addin(acc, key, c):
        v = acc.get(key)
        v = c if v is None else v + c
        if v.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = v

    def scaled(d, c):
        return {} if c.is_zero() else {k: c * v for k, v in d.items()}

    module = data.module
    m = module.dim
    rows, types, gram = data.rows, data.types, data.gram
    nW, Fels = len(rows), data.F
    nF = len(Fels)
    factors = module.group.factors * 2
    coords = [f.coords for f in Fels]
    f_index = {c: k for k, c in enumerate(coords)}
    f_mul = [[f_index[tuple((x + y) % f for x, y, f in zip(a, b, factors))]
              for b in coords] for a in coords]
    zero_gg = tuple(module.group.zero().coords) * 2
    id_f = f_index[zero_gg]
    uu = data.uu_coords()
    u_f = f_index.get(uu)
    exps = expand_twist(data.psi)
    psiv = [[scalar.root_of_unity(data.psi.N, exps[(a, b)]) for b in coords]
            for a in coords]
    N = module.group.exponent
    act_roots = [[scalar.root_of_unity(N, e)
                  for e in data.act_exponents(f)[0]] for f in Fels]
    memo = {}

    def nf(word):
        got = memo.get(word)
        if got is not None:
            return got
        out = None
        for p in range(len(word) - 1):
            (ka, a), (kb, b) = word[p], word[p + 1]
            head, tail = word[:p], word[p + 2:]
            if ka == "e" and kb == "e":
                out = scaled(nf(head + (("e", f_mul[a][b]),) + tail), psiv[a][b])
                break
            if ka == "e" and kb == "w":
                out = scaled(nf(head + (("w", b), ("e", a)) + tail),
                             act_roots[a][b])
                break
            if ka == "w" and kb == "w":
                if a == b:
                    out = scaled(nf(head + tail), half * gram[a][a])
                    break
                if a > b:
                    sign = _SECTOR_SIGN[tuple(sorted((types[a], types[b])))]
                    c = gram[b][a]
                    if sign == -1:
                        acc = dict(nf(head + (("w", b), ("w", a)) + tail))
                        if not c.is_zero():
                            for k, v in nf(head + (("e", u_f),) + tail).items():
                                addin(acc, k, -(c * v))
                    else:
                        acc = scaled(nf(head + (("w", b), ("w", a)) + tail), -one)
                        if not c.is_zero():
                            for k, v in nf(head + tail).items():
                                addin(acc, k, c * v)
                    out = acc
                    break
        if out is None:
            S = tuple(i for k, i in word if k == "w")
            f = next((i for k, i in word if k == "e"), id_f)
            out = {(S, f): one}
        memo[word] = out
        return out

    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(nW), r) for r in range(nW + 1)))
    keys = [(S, fk) for S in subsets for fk in range(nF)]
    kidx = {key: i for i, key in enumerate(keys)}
    mult = {}
    for i, (S1, f1) in enumerate(keys):
        for j, (S2, f2) in enumerate(keys):
            word = tuple(("w", s) for s in S1) + (("e", f1),) \
                + tuple(("w", s) for s in S2) + (("e", f2),)
            mult[(i, j)] = {kidx[key]: c for key, c in nf(word).items()}

    def tensor_mul(t1, t2):
        acc = {}
        for (a1, b1), c1 in t1.items():
            for (a2, b2), c2 in t2.items():
                pa = host_mono_mul(host, a1, a2, scalar)
                if not pa:
                    continue
                pb = mult.get((b1, b2), {})
                if not pb:
                    continue
                for a3, ca in pa.items():
                    for b3, cb in pb.items():
                        addin(acc, (a3, b3), c1 * c2 * ca * cb)
        return acc

    g = module.group
    zero_g = tuple(g.zero().coords)
    ue = tuple(module.u.coords) + zero_g
    eu = zero_g + tuple(module.u.coords)
    unit_k = kidx[((), id_f)]
    lamw = []
    for wi, row in enumerate(rows):
        t = types[wi]
        d = {}
        for j, c in enumerate(row):
            if c.is_zero():
                continue
            if j >= m and t == 3:
                addin(d, (host.index[((j,), uu)], kidx[((), u_f)]), c)
            else:
                addin(d, (host.index[((j,), zero_gg)], unit_k), c)
        addin(d, (host.index[((), eu if t == 2 else ue)], kidx[((wi,), id_f)]),
              one)
        lamw.append(d)
    lame = [{(host.index[((), f.coords)], kidx[((), fk)]): one}
            for fk, f in enumerate(Fels)]
    coaction = {}
    for i, (S, fk) in enumerate(keys):
        acc = {(host.one_idx, unit_k): one}
        for factor in [lamw[s] for s in S] + [lame[fk]]:
            acc = tensor_mul(acc, factor)
        coaction[i] = acc
    return mult, coaction


# -- kernels of the comodule equations, every unknown eliminated ------------
# Rows are sparse {column: scalar} dicts over the caller's scalars (is_zero,
# inv, +, -, *); nothing is skipped, whatever the coaction tables hold.

class _Reduced:
    """The reduced row echelon form of the rows inserted so far: pivots
    maps each pivot column (the least column of its row) to its row, and
    order lists the pivot columns in insertion order."""

    def __init__(self):
        self.pivots = {}
        self.order = []

    def insert(self, row):
        row = {k: c for k, c in row.items() if not c.is_zero()}
        for p in [p for p in row if p in self.pivots]:
            f = row[p]
            for k, c in self.pivots[p].items():
                v = row[k] - f * c if k in row else -(f * c)
                if v.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = v
        if not row:
            return
        q = min(row)
        f = row[q].inv()
        row = {k: f * c for k, c in row.items()}
        for other in self.pivots.values():
            g = other.get(q)
            if g is None:
                continue
            for k, c in row.items():
                v = other[k] - g * c if k in other else -(g * c)
                if v.is_zero():
                    other.pop(k, None)
                else:
                    other[k] = v
        self.pivots[q] = row
        self.order.append(q)


def null_space(rows, n, zero, one):
    """Dense basis of the common null space of rows in k^n: for each column
    c that is not a pivot of their reduced form, 1 at c, 0 at the other
    non-pivot columns, and minus each pivot row's entry at c at its pivot."""
    red = _Reduced()
    for row in rows:
        red.insert(row)
    basis = []
    for c in range(n):
        if c in red.pivots:
            continue
        v = [zero] * n
        v[c] = one
        for p, row in red.pivots.items():
            if c in row:
                v[p] = -row[c]
        basis.append(v)
    return basis


def coinvariant_basis(coaction, one_idx, zero, one):
    """Basis of {x : lam(x) = 1 x x} from null_space over every column:
    coaction[i] maps (host index, k) to the coefficient in lam(i), and
    one_idx is the host unit's index."""
    n = len(coaction)
    rows = {}
    for i, lam in enumerate(coaction):
        for key, c in lam.items():
            row = rows.setdefault(key, {})
            row[i] = row.get(i, zero) + c
    for i in range(n):
        row = rows.setdefault((one_idx, i), {})
        row[i] = row.get(i, zero) - one
    return null_space(rows.values(), n, zero, one)


def failing_filtration_steps(coaction, host_deg, deg, zero, one):
    """The degrees n whose filtration step, the common null space of the
    coaction rows (h, k) with host_deg[h] > n, has another dimension than
    the number of basis elements of degree <= n, by one null_space per
    step: coaction[i] maps (host index h, k) to the coefficient in lam(i),
    and deg[i] is the recorded degree of basis element i."""
    n = len(coaction)
    out = []
    for step in range(max(deg) + 1):
        rows = {}
        for i, lam in enumerate(coaction):
            for (h, k), c in lam.items():
                if host_deg[h] > step:
                    row = rows.setdefault((h, k), {})
                    row[i] = row.get(i, zero) + c
        kern = null_space(rows.values(), n, zero, one)
        if len(kern) != sum(1 for d in deg if d <= step):
            out.append(step)
    return out


def cotensor_rows(lam_r, lam_l, parts_l, parts_k, uu, factors, zero, one):
    """The reduced basis rows of the cotensor kernel in insertion order,
    every block solved in full.  lam_r[i] maps (host index p, k) to the
    coefficient of k x p in L's right coaction, lam_l[j] maps (p, k) to the
    coefficient of p x k in K's left coaction, parts_l and parts_k are the
    group-part coordinates of L's and K's basis, and uu the coordinates of
    (u, u) in the group with cyclic factors factors.  The unknowns z_ij are
    grouped by the classes {g, g + uu} of both group parts, blocks taken in
    sorted class order and columns in basis order; each block's null space
    goes into one reduced form keyed (i, j)."""
    def klass(g):
        h = tuple((x + y) % f for x, y, f in zip(g, uu, factors))
        return min(tuple(g), h), max(tuple(g), h)

    lcl, kcl = {}, {}
    for i, g in enumerate(parts_l):
        lcl.setdefault(klass(g), []).append(i)
    for j, g in enumerate(parts_k):
        kcl.setdefault(klass(g), []).append(j)
    red = _Reduced()
    for ka in sorted(lcl):
        for kb in sorted(kcl):
            cols = [(i, j) for i in lcl[ka] for j in kcl[kb]]
            rows = {}
            for t, (i, j) in enumerate(cols):
                for (p, k), c in lam_r[i].items():
                    row = rows.setdefault((k, p, j), {})
                    row[t] = row.get(t, zero) + c
                for (p, k), c in lam_l[j].items():
                    row = rows.setdefault((i, p, k), {})
                    row[t] = row.get(t, zero) - c
            for v in null_space(rows.values(), len(cols), zero, one):
                red.insert({cols[t]: c for t, c in enumerate(v)})
    return [red.pivots[q] for q in red.order]
