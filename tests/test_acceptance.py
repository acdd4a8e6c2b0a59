"""End-to-end acceptance suite: one timed pass/fail line per criterion."""

import random
import time

import hopf_helpers as hh
import oracles

from brpickit import abelian as ab
from brpickit import brpic as bp
from brpickit import hopf
from brpickit import host
from brpickit import linalg as la
from brpickit import orth
from brpickit.cyclo import CycloScalar


def _report(capsys, n, ok, desc, t, limit):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {n:2d}: {desc} "
            f"({t:.1f}s, limit {limit}s)")
    with capsys.disabled():
        print(line)
    assert ok, f"criterion {n}: {desc}"
    assert t < limit, f"criterion {n} exceeded {limit}s: took {t:.1f}s"


def test_criterion_01(capsys):
    t0 = time.monotonic()
    auts = orth.enumerate_orth(ab.FinAbGroup([2]))
    mats = {a.matrix for a in auts}
    ok = mats == {((1, 0), (0, 1)), ((0, 1), (1, 0))}
    gamma = next(a for a in auts if a.matrix == ((0, 1), (1, 0)))
    ok = ok and orth.orth_compose(gamma, gamma).matrix == ((1, 0), (0, 1))
    _report(capsys, 1, ok, "O(Z2+Z2^) = {id, gamma} with gamma of order 2",
            time.monotonic() - t0, 1)


def test_criterion_02(capsys):
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7):
        G = ab.FinAbGroup([p])
        auts = orth.enumerate_orth(G)
        ok = ok and len(auts) == 2 * (p - 1)
        oracle = {tuple(tuple(r) for r in M)
                  for M in oracles.orth_brute_force([p])}
        ok = ok and {a.matrix for a in auts} == oracle
        if p >= 5:
            ok = ok and not oracles.is_abelian([p], sorted(oracle))
            noncomm = any(
                orth.orth_compose(a, b) != orth.orth_compose(b, a)
                for a in auts for b in auts)
            ok = ok and noncomm
    _report(capsys, 2, ok,
            "|O(Zp+Zp^)| = 2(p-1) vs brute oracle, non-abelian for p >= 5",
            time.monotonic() - t0, 30)


def test_criterion_03(capsys):
    t0 = time.monotonic()
    ok = True
    one = la.sc(1)
    for factors in ((2,), (3,), (4,), (2, 2)):
        G = ab.FinAbGroup(factors)
        ident = orth.orth_identity(G)
        U = orth.u_alpha(ident)
        diag = sorted(tuple(g.coords) + tuple(g.coords) for g in G.elements())
        ok = ok and sorted(f.coords for f in U.elements) == diag
        psi = orth.psi_alpha(ident)
        n = len(psi.elements)
        ok = ok and all(CycloScalar.root_of_unity(psi.N, psi.law(i, j)[1]) == one
                        for i in range(n) for j in range(n))
        for alpha in orth.enumerate_orth(G):
            Ua = orth.u_alpha(alpha)
            pa = orth.psi_alpha(alpha)
            val = {(a.coords, b.coords):
                   CycloScalar.root_of_unity(pa.N, pa.law(i, j)[1])
                   for i, a in enumerate(pa.elements)
                   for j, b in enumerate(pa.elements)}
            for a in Ua.elements:
                for b in Ua.elements:
                    mid = ab.add(a, b).coords
                    for c in Ua.elements:
                        lhs = val[(a.coords, b.coords)] * val[(mid, c.coords)]
                        rhs = (val[(b.coords, c.coords)]
                               * val[(a.coords, ab.add(b, c).coords)])
                        if lhs != rhs:
                            ok = False
    _report(capsys, 3, ok,
            "U_id = diag(G), psi_id = 1, cocycle law for every alpha",
            time.monotonic() - t0, 10)


def test_criterion_04(capsys):
    t0 = time.monotonic()
    module = hh.sweedler_module()
    comps = bp.describe_brpic(module)
    ok = len(comps) == 2
    mats = sorted(c["alpha"].matrix for c in comps)
    ok = ok and mats == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    ok = ok and all(c["A_dim"] == 1 and c["C_dim"] == 1 for c in comps)
    # D is forced as the inverse transpose of A on every sampled datum
    rng = random.Random(4)
    for c in comps:
        for _ in range(5):
            d = bp.random_odatum(module, rng, c["alpha"])
            rep = bp.validate_odatum(d)
            ok = ok and rep["duality"] and rep["B_zero"] and rep["valid"]
    _report(capsys, 4, ok,
            "Sweedler description: 2 components, dims (1,1), D = A^-T",
            time.monotonic() - t0, 5)


def _translate(d, x, y):
    mod = d.module
    N = mod.group.exponent
    ex = oracles.vplusvdual_exponents(
        la.pair_exponents(mod, hh.pair_coords(x)), N)
    ey = oracles.vplusvdual_exponents(
        la.pair_exponents(mod, hh.pair_coords(y)), N)
    T = oracles.dense_translate(d.T, ex, [-e for e in ey],
                                lambda k: CycloScalar.root_of_unity(N, k),
                                CycloScalar.zero())
    return bp.ODatum(mod, T, d.alpha)


_SUITE_MODULES = ("Z2_d1", "Z2_d2", "Z2Z2_d1", "Z2Z2_d2")


def test_criterion_05(capsys):
    t0 = time.monotonic()
    zoo = dict(hh.module_zoo())
    ok = True
    for idx, name in enumerate(_SUITE_MODULES):
        module = zoo[name]
        e = bp.identity_odatum(module)
        rng = random.Random(500 + idx)
        els = list(module.group.elements())
        for _ in range(50):
            d1 = bp.random_odatum(module, rng)
            d2 = bp.random_odatum(module, rng)
            d3 = bp.random_odatum(module, rng)
            left = bp.odatum_product(bp.odatum_product(d1, d2), d3)
            right = bp.odatum_product(d1, bp.odatum_product(d2, d3))
            ok = ok and left == right
            ok = ok and bp.odatum_equiv(bp.odatum_product(d1, e), d1)[0]
            ok = ok and bp.odatum_equiv(bp.odatum_product(e, d1), d1)[0]
            inv = bp.odatum_invert(d1)
            ok = ok and bp.odatum_equiv(bp.odatum_product(d1, inv), e)[0]
            ok = ok and bp.odatum_equiv(bp.odatum_product(inv, d1), e)[0]
            d1t = _translate(d1, els[rng.randrange(len(els))],
                             els[rng.randrange(len(els))])
            d2t = _translate(d2, els[rng.randrange(len(els))],
                             els[rng.randrange(len(els))])
            ok = ok and bp.odatum_equiv(bp.odatum_product(d1, d2),
                                        bp.odatum_product(d1t, d2t))[0]
            if not ok:
                break
    _report(capsys, 5, ok,
            "group axioms, 200 seeded elements over Z2 and Z2xZ2",
            time.monotonic() - t0, 60)


def test_criterion_06(capsys):
    t0 = time.monotonic()
    zoo = dict(hh.module_zoo())
    ok = True
    for idx, name in enumerate(_SUITE_MODULES):
        module = zoo[name]
        rng = random.Random(600 + idx)
        for _ in range(25):
            d1 = bp.random_odatum(module, rng)
            d2 = bp.random_odatum(module, rng)
            r1 = bp.odatum_to_rdatum(d1)
            r2 = bp.odatum_to_rdatum(d2)
            ok = ok and (bp.tau(bp.rdatum_product(r1, r2))
                         == bp.lag_product(bp.tau(r1), bp.tau(r2)))
            ok = ok and bp.rdatum_equiv(
                r1, bp.odatum_to_rdatum(bp.rdatum_to_odatum(r1)))[0]
            ok = ok and bp.odatum_equiv(
                d1, bp.rdatum_to_odatum(bp.odatum_to_rdatum(d1)))[0]
            if not ok:
                break
    _report(capsys, 6, ok,
            "tau(a*b) = lag_product and conversion round trips, 100 seeded",
            time.monotonic() - t0, 60)


def test_criterion_07(capsys):
    t0 = time.monotonic()
    ok = True
    zoo = hh.module_zoo()
    rng = random.Random(77)
    for name, module in zoo:
        H = host.build_supergroup(module)
        rep = host.check_hopf_axioms(H, rng=rng)
        ok = ok and rep["ok"]
    for m1, m2 in ((zoo[0][1], zoo[3][1]), (zoo[0][1], zoo[0][1])):
        T = host.build_tensor_hopf(m1, m2)
        rep = host.check_hopf_axioms(T, rng=rng)
        ok = ok and rep["ok"]
    built = 0
    for seed in range(50):
        r = random.Random(7000 + seed)
        module = zoo[seed % len(zoo)][1]
        data = hopf.random_compatible_data(module, r, dim_cap=96)
        K = hopf.build_K(data)
        built += 1
        ok = ok and K.dim == (1 << len(data.rows)) * len(data.F)
        rep = hopf.check_comodule_algebra(K, rng=r)
        ok = ok and rep["ok"] and rep["coinvariants_dim"] == 1
        if not ok:
            break
    ok = ok and built == 50
    _report(capsys, 7, ok,
            "Hopf/comodule axioms on all hosts and 50 seeded K builds",
            time.monotonic() - t0, 120)


def test_criterion_08(capsys):
    t0 = time.monotonic()
    ok = True
    zoo = dict(hh.module_zoo())
    with_beta = 0
    for seed in range(25):
        r = random.Random(8000 + seed)
        module = zoo[_SUITE_MODULES[seed % 4]]
        data = hopf.random_compatible_data(module, r, dim_cap=96)
        K = hopf.build_K(data)
        if any(not c.is_zero() for row in data.gram for c in row):
            with_beta += 1
        same, _why = hopf.same_tables(hopf.loewy_graded(K),
                                      hopf.build_K(data.zero_beta()))
        ok = ok and same
        if not ok:
            break
    ok = ok and with_beta >= 5
    _report(capsys, 8, ok,
            "gr K(W,beta,F,psi) = K(W,0,F,psi), 25 seeded instances",
            time.monotonic() - t0, 60)


def test_criterion_09(capsys):
    t0 = time.monotonic()
    ok = True
    zoo = dict(hh.module_zoo())
    mods = [zoo[n] for n in ("Z2_d1", "Z2_d2", "Z4_d1", "Z2Z2_d1")]
    for seed in range(25):
        r = random.Random(9000 + seed)
        module = mods[seed % len(mods)]
        d, dt = hh.random_rpair(module, r)
        rep = hopf.verify_cotensor_iso(d, dt)
        wdim = bp.rdatum_product(d, dt).W.dim
        usize = len(orth.u_alpha(d.alpha).elements)
        ok = ok and rep["ok"] and rep["dim_cot"] == (1 << wdim) * usize
        if not ok:
            break
    _report(capsys, 9, ok,
            "cotensor dimension law and isomorphism, 25 seeded pairs",
            time.monotonic() - t0, 300)


def test_criterion_10(capsys):
    t0 = time.monotonic()
    ok = True
    for module in (hh.sweedler_module(), hh.z4_module()):
        H = host.build_supergroup(module)
        rep = hopf.check_diag_iso(H)
        ok = ok and rep["ok"]
    _report(capsys, 10, ok,
            "diagonal comodule isomorphic to its K model via sigma",
            time.monotonic() - t0, 10)


def test_criterion_11(capsys):
    module = hh.sweedler_module()
    i4 = CycloScalar.root_of_unity(4, 1)
    T = [[i4, la.sc(0)], [la.sc(1), -i4]]
    d = bp.ODatum(module, T, orth.orth_identity(module.group))
    t0 = time.perf_counter()
    k = hh.class_order(d)
    elapsed = time.perf_counter() - t0
    ok = k is not None
    with capsys.disabled():
        print(f"[REPORT] criterion 11: class order of [[i,0],[xi,-i]] "
              f"computed here = {k}; source text claims order 4")
        print(f"[{'PASS' if ok else 'FAIL'}] criterion 11: discrepancy probe "
              f"computed a definite class order ({elapsed:.1f}s, report-only)")
    assert ok