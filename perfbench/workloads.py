"""The three benchmark workloads: seeded `brpic-kit verify` suites.

An instance is one element of a suite's seeded loop, and is run exactly as
`brpic-kit verify <suite> --seed s --count 1` runs it, through the same
public calls.  Each run draws its instance seeds ``s`` from the benchmark
seed and keeps a fixed number per cost class ("quotas"), so that every run
has the same mix of cheap and expensive instances whatever its seed.
"""

import importlib
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass

MODULES = ("cyclo", "abelian", "linalg", "orth", "brpic", "hopf", "cli")


class Lib:
    """One import of the brpickit modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"brpickit.{name}"))


def fresh_import():
    for name in [n for n in sys.modules
                 if n == "brpickit" or n.startswith("brpickit.")]:
        del sys.modules[name]
    return Lib()


# -- instances -----------------------------------------------------------
# Each returns (checks, instances, known_ok): the CLI's (name, ok) checks in
# report order, the cotensor suite's per-instance records (or None), and
# whether the verdict agrees with the answer known for it.

def axioms_instance(lib, module, alphas, rng):
    bp = lib.brpic
    e = bp.identity_odatum(module)
    d1, d2, d3 = (bp.random_odatum(module, rng) for _ in range(3))
    ok = {
        "identity_laws": (bp.odatum_product(e, d1) == d1
                          and bp.odatum_product(d1, e) == d1),
        "associativity": (bp.odatum_product(bp.odatum_product(d1, d2), d3)
                          == bp.odatum_product(d1, bp.odatum_product(d2, d3))),
        "inverses": (bp.odatum_product(d1, bp.odatum_invert(d1)) == e
                     and bp.odatum_product(bp.odatum_invert(d1), d1) == e),
        "convert_round_trip": bp.odatum_equiv(
            bp.rdatum_to_odatum(bp.odatum_to_rdatum(d1)), d1)[0],
    }
    r1, r2 = bp.odatum_to_rdatum(d1), bp.odatum_to_rdatum(d2)
    ok["tau_multiplicative"] = (bp.tau(bp.rdatum_product(r1, r2))
                                == bp.lag_product(bp.tau(r1), bp.tau(r2)))
    checks = [(name, bool(ok[name])) for name in sorted(ok)]
    return checks, None, all(v for _, v in checks)


def comodule_instance(lib, module, alphas, rng):
    hopf = lib.hopf
    data = hopf.random_compatible_data(module, rng)
    names = ("generator_valid", "dimension_law", "comodule_algebra_axioms",
             "trivial_coinvariants", "graded_model_match")
    if hopf.compatible_violations(data):
        return [(n, n != "generator_valid") for n in names], None, False
    K = hopf.build_K(data)
    expected_dim = (1 << len(data.rows)) * len(data.F)
    rep = hopf.check_comodule_algebra(K, rng=rng)
    zero_beta = hopf.CompatibleData(data.module, data.W1, data.W2, data.W3,
                                    None, data.F, data.psi, alpha=data.alpha)
    same, _why = hopf.same_tables(hopf.loewy_graded(K),
                                  hopf.build_K(zero_beta))
    oks = (True, K.dim == expected_dim, rep["ok"],
           rep["coinvariants_dim"] == 1, same)
    known = K.dim == expected_dim and rep["coinvariants_dim"] == 1
    checks = [(n, bool(v)) for n, v in zip(names, oks)]
    return checks, None, known and all(oks)


def cotensor_instance(lib, module, alphas, rng):
    hopf, orth = lib.hopf, lib.orth
    alpha = alphas[rng.randrange(len(alphas))]
    d = hopf.random_graph_datum(module, rng, alpha)
    dt = hopf.random_graph_datum(module, rng, orth.orth_identity(module.group))
    rep = hopf.verify_cotensor_iso(d, dt)
    u_size = len(orth.u_alpha(d.alpha).elements)
    wdim = lib.brpic.rdatum_product(d, dt).W.dim
    record = {"dim_cot": rep["dim_cot"], "dim_expected": rep["dim_expected"],
              "W_product_dim": wdim, "U_size": u_size, "ok": rep["ok"]}
    known = rep["dim_cot"] == (1 << wdim) * u_size
    return [("cotensor_iso", bool(rep["ok"]))], [record], known and rep["ok"]


# -- cost classes ----------------------------------------------------------

def comodule_class(lib, module, alphas, seed):
    data = lib.hopf.random_compatible_data(module, random.Random(seed))
    return len(data.F), len(data.rows)


def cotensor_class(lib, module, alphas, seed):
    alpha = alphas[random.Random(seed).randrange(len(alphas))]
    return len(lib.orth.u_alpha(alpha).elements)


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    spec: dict
    instance: object
    quotas: dict                 # cost class -> instances per round
    classify: object = None      # (lib, module, alphas, seed) -> cost class
    round_s: float = 1.0         # scaled seconds one round takes
    setup_cost_s: float = 0.0    # scaled seconds one set-up takes


WORKLOADS = {w.name: w for w in (
    Workload("axioms-z2z2", "group-axioms",
             {"group": [2, 2], "u": [1, 1], "V": [[1, 0], [0, 1]]},
             axioms_instance, {None: 5}, round_s=3.15, setup_cost_s=5.4),
    # Classes (|F|, rows) in their shares of 250 natural draws, scaled to
    # 27 a round; (1, 0), drawn twice, gets none.  Instance times range
    # from 0.1 s to 3 s by class, so a run keeps the classes fixed.
    Workload("comodule-z4", "comodule",
             {"group": [4], "u": [2], "V": [[1], [3]]},
             comodule_instance,
             {(1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 1): 1,
              (2, 2): 2, (2, 3): 2, (2, 4): 1, (4, 0): 1, (4, 1): 2,
              (4, 2): 3, (4, 3): 2, (4, 4): 1, (16, 0): 1, (16, 1): 2,
              (16, 2): 3, (16, 3): 2},
             comodule_class, round_s=18.5, setup_cost_s=0.1),
    # |U_alpha| classes 8, 16, 32 in their shares of the 128 suite alphas
    # (16:32:48).  The 32 alphas with |U_alpha| = 64 cost about 20 s each,
    # which a run cannot afford, so they are left out.
    Workload("cotensor-z2z4", "cotensor",
             {"group": [2, 4], "u": [0, 2], "V": [[0, 1]]},
             cotensor_instance, {8: 1, 16: 2, 32: 3}, cotensor_class,
             round_s=14.0, setup_cost_s=3.4),
)}


def setup(workload, lib=None):
    """Parse the spec and run the suite's precompute, on ``lib`` or on a
    fresh import of brpickit."""
    lib = lib or fresh_import()
    module = lib.cli.parse_module(workload.spec)
    return lib, module, lib.brpic.suite_alphas(module)


@contextmanager
def families_memoized(hopf):
    """Classifying a comodule seed draws its data, and nearly all of a draw
    is compatible_families(module), which depends on the module alone.
    Planning memoizes it, and restores it before any instance runs."""
    original = hopf.compatible_families
    memo = {}

    def families(module):
        if id(module) not in memo:
            memo[id(module)] = original(module)
        return memo[id(module)]

    hopf.compatible_families = families
    try:
        yield
    finally:
        hopf.compatible_families = original


def plan(workload, seed, rounds, lib, module, alphas):
    """(instance seed, cost class) pairs for ``rounds`` rounds, drawn from
    ``seed``; each round fills every class's quota once."""
    with families_memoized(lib.hopf):
        return _plan(workload, seed, rounds, lib, module, alphas)


def _plan(workload, seed, rounds, lib, module, alphas, max_draws=10000):
    rng = random.Random(seed)
    seen = set()
    chosen = []
    for _ in range(rounds):
        left = dict(workload.quotas)
        for _ in range(max_draws):
            if not any(left.values()):
                break
            s = rng.getrandbits(31)
            if s in seen:
                continue
            seen.add(s)
            cls = (workload.classify(lib, module, alphas, s)
                   if workload.classify else None)
            if left.get(cls):
                left[cls] -= 1
                chosen.append((s, cls))
        else:
            raise RuntimeError(f"{workload.name}: quotas {left} not met in "
                               f"{max_draws} draws")
    return chosen


def report_json(workload, module, seed, checks, records):
    """What `brpic-kit verify <suite> --seed seed --count 1 --json` prints."""
    report = {"command": f"verify {workload.suite}", "seed": seed,
              "group": module.group.to_json(), "u": list(module.u.coords),
              "dim_V": module.dim,
              "checks": [{"name": n, "ok": ok,
                          "detail": "1 instances" if ok
                          else "failed instances [0]"} for n, ok in checks],
              "ok": all(ok for _, ok in checks)}
    if records is not None:
        report["instances"] = records
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
