"""Command-line front end: parse a JSON problem file, dispatch, report.

The problem file describes a module (V, u, G):

    {"group": [2], "u": [1], "V": [[1]]}

with optional datum payloads ("datum", "datum2": either a relation datum
{"W", "beta", "alpha"}, a matrix datum {"T", "alpha"}, or the strings
"identity" / "identity_rdatum"), a "seed", a "bound", a "count" and a
"suite" for verification runs.  Command-line flags override file fields.

Exit codes: 0 success, 1 verification failure, 2 input validation error
(the message names the offending field), 3 capacity exceeded.  Reports go
to stdout (human text by default, --json for machine output); diagnostics
go to stderr.  Given the same file and seed the output is byte-for-byte
reproducible.
"""

import argparse
import json
import os
import random
import sys
from math import gcd

from . import abelian as ab
from . import brpic as bp
from . import cyclo
from . import hopf
from . import host
from . import linalg as la
from . import orth
from .errors import BrpicError, CapacityError, DomainError, InputValidationError


class SpecError(Exception):
    """Input validation failure carrying the offending field path."""

    def __init__(self, path, msg):
        super().__init__(f"{path}: {msg}")
        self.path = path
        self.msg = msg


# -- problem parsing --------------------------------------------------------

def load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError("spec", f"cannot read file: {e}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError("spec", f"not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise SpecError("spec", "top-level value must be an object")
    return obj


def _parse_group_u_V(obj):
    """Shared field validation; u = 0 is tolerated here (pure group algebra,
    forces V empty via the pairing requirement) for group-level commands."""
    factors = obj.get("group")
    if not isinstance(factors, list) or not factors:
        raise SpecError("group", "required: a non-empty list of integers")
    for i, n in enumerate(factors):
        if type(n) is not int or n < 1:
            raise SpecError(f"group[{i}]", "factors must be integers >= 1")
    G = ab.FinAbGroup(factors)
    if G.exponent > cyclo.MAX_CONDUCTOR:
        raise CapacityError(f"group: exponent {G.exponent} exceeds the "
                            f"supported maximum {cyclo.MAX_CONDUCTOR}")
    u = obj.get("u")
    if (not isinstance(u, list) or len(u) != len(factors)
            or any(type(c) is not int for c in u)):
        raise SpecError("u", f"required: a list of {len(factors)} integers")
    uel = G.element(tuple(u))
    if ab.order_of(uel) > 2:
        raise SpecError("u", f"must square to the identity, got order "
                             f"{ab.order_of(uel)}")
    V = obj.get("V")
    if not isinstance(V, list):
        raise SpecError("V", "required: a list of character exponent lists")
    chars = []
    for i, exps in enumerate(V):
        if (not isinstance(exps, list) or len(exps) != len(factors)
                or any(type(c) is not int for c in exps)):
            raise SpecError(f"V[{i}]",
                            f"must be a list of {len(factors)} integers")
        chi = G.character(tuple(exps))
        if ab.pair_value(chi, uel) != la.sc(-1):
            raise SpecError(f"V[{i}]", "character must pair to -1 with u")
        chars.append(chi)
    return G, uel, chars


def parse_module(obj) -> la.GModuleV:
    G, uel, chars = _parse_group_u_V(obj)
    if ab.order_of(uel) != 2:
        raise SpecError("u", "this command requires u of order exactly 2")
    return la.GModuleV(G, uel, chars)


def parse_datum(module, obj, path):
    """Returns (kind, datum) with kind in {"rdatum", "odatum"}."""
    if obj == "identity":
        return "odatum", bp.identity_odatum(module)
    if obj == "identity_rdatum":
        return "rdatum", bp.identity_rdatum(module)
    if not isinstance(obj, dict):
        raise SpecError(path, "expected a datum object or an identity tag")
    try:
        if "T" in obj:
            return "odatum", bp.ODatum.from_json(module, obj)
        if "W" in obj:
            return "rdatum", bp.RDatum.from_json(module, obj)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SpecError(path, f"malformed datum payload: {e}")
    except (DomainError, InputValidationError) as e:
        raise SpecError(path, str(e))
    raise SpecError(path, "expected keys {T, alpha} or {W, beta, alpha}")


def _int_field(spec, name, default, flag=None, positive=False):
    """The flag when given, else spec[name] as a JSON integer, else default
    (field absent or null); positive demands a value >= 1."""
    value = spec.get(name) if flag is None else flag
    if value is None:
        return default
    if type(value) is not int:
        raise SpecError(name, f"must be an integer, got {json.dumps(value)}")
    if positive and value < 1:
        raise SpecError(name, f"must be an integer >= 1, got {value}")
    return value


def _module_line(module):
    return (f"module: group {list(module.group.factors)}, "
            f"u {list(module.u.coords)}, dim V {module.dim}")


# -- orth -------------------------------------------------------------------

def cmd_orth(spec, bound):
    G, uel, chars = _parse_group_u_V(spec)
    autos = orth.enumerate_orth(G, bound)
    N = G.exponent
    roots = [cyclo.CycloScalar.root_of_unity(N, e).to_string()
             for e in range(N)]
    entries = []
    lines = ["command: orth",
             f"module: group {list(G.factors)}, u {list(uel.coords)}, "
             f"dim V {len(chars)}",
             f"orthogonal automorphisms: {len(autos)}"]
    for k, a in enumerate(autos):
        # psi(x, .) is a character of U_alpha, exps[x] on its generators, of
        # order N / gcd(N, *exps[x]), so 1 on |U| / that order elements
        gens = orth.u_generators(a)
        exps = {x: [sum(c * d for c, d in zip(v, h)) % N for h in gens]
                for x, v in orth.psi_vectors(a).items()}
        size = len(exps)
        nontrivial = sum(size - size * gcd(N, *e) // N for e in exps.values())
        entries.append({"alpha": a.to_json(), "U_size": size,
                        "U_generators": [list(g) for g in gens],
                        "psi": [[list(g), list(h), roots[e]] for g in gens
                                for h, e in zip(gens, exps[g])]})
        psitxt = ("psi trivial" if nontrivial == 0
                  else f"psi nontrivial on {nontrivial} pairs")
        lines.append(f"alpha {k}: matrix "
                     f"{[list(r) for r in a.matrix]}, "
                     f"|U| {size}, {psitxt}")
    report = {"command": "orth", "group": G.to_json(),
              "u": list(uel.coords), "dim_V": len(chars),
              "count": len(autos), "automorphisms": entries}
    return True, report, lines


# -- brpic ------------------------------------------------------------------

def _jsonable_validation(rep):
    return {k: v for k, v in sorted(rep.items()) if isinstance(v, bool)}


def cmd_brpic(verb, spec, bound):
    module = parse_module(spec)
    lines = [f"command: brpic {verb}", _module_line(module)]

    if verb == "describe":
        comps = bp.describe_brpic(module, bound)
        report = {"command": "brpic describe",
                  "group": module.group.to_json(), "dim_V": module.dim,
                  "component_count": len(comps),
                  "components": [c | {"alpha": c["alpha"].to_json()}
                                 for c in comps]}
        lines.append(f"components: {len(comps)}")
        for k, c in enumerate(comps):
            lines.append(
                f"component {k}: alpha "
                f"{[list(r) for r in c['alpha'].matrix]}, "
                f"A dim {c['A_dim']}, C dim {c['C_dim']}")
        lines.append("D block: determined as the inverse transpose of A")
        return True, report, lines

    if "datum" not in spec:
        raise SpecError("datum", f"required for brpic {verb}")
    kind, d = parse_datum(module, spec["datum"], "datum")

    if verb in ("mul", "equiv"):
        if "datum2" not in spec:
            raise SpecError("datum2", f"required for brpic {verb}")
        kind2, d2 = parse_datum(module, spec["datum2"], "datum2")
        if kind2 != kind:
            raise SpecError("datum2",
                            f"payloads must be the same kind, got {kind} "
                            f"and {kind2}")

    if verb == "equiv":
        found, wit = (bp.rdatum_equiv(d, d2) if kind == "rdatum"
                      else bp.odatum_equiv(d, d2))
        witness = None if wit is None else [list(g.coords) for g in wit]
        report = {"command": "brpic equiv", "kind": kind,
                  "equivalent": found, "witness": witness}
        lines.append(f"equivalent: {found}")
        if witness is not None:
            lines.append(f"witness: {witness}")
        return True, report, lines

    if verb == "mul":
        out = (bp.rdatum_product(d, d2) if kind == "rdatum"
               else bp.odatum_product(d, d2))
        name, okind = "product", kind
    elif verb == "inv":
        out = (bp.odatum_invert(d) if kind == "odatum" else
               bp.odatum_to_rdatum(bp.odatum_invert(bp.rdatum_to_odatum(d))))
        name, okind = "inverse", kind
    else:
        out, okind = ((bp.rdatum_to_odatum(d), "odatum") if kind == "rdatum"
                      else (bp.odatum_to_rdatum(d), "rdatum"))
        name = "converted"
    rep = (bp.validate_rdatum if okind == "rdatum" else bp.validate_odatum)(out)
    report = {"command": f"brpic {verb}", "kind": okind, name: out.to_json(),
              "validation": _jsonable_validation(rep)}
    if verb != "inv":
        lines.append(f"{name} kind: {okind}")
    lines.append(f"{name}: {json.dumps(out.to_json(), sort_keys=True)}")
    lines.append(f"valid: {rep['valid']}")
    return True, report, lines


# -- verify -----------------------------------------------------------------

def _check(checks, lines, name, ok, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    tail = f" ({detail})" if detail else ""
    lines.append(f"check {name}: {'pass' if ok else 'FAIL'}{tail}")


def _tally(checks, lines, name, count, failed):
    """_check over count instances, failing at the instances in failed."""
    _check(checks, lines, name, not failed,
           f"failed instances {failed[:5]}" if failed else f"{count} instances")


def _suite_datum(module, spec, checks, lines):
    for field in ("datum", "datum2"):
        if field not in spec:
            continue
        _, d = parse_datum(module, spec[field], field)
        rep = bp.binding_report(d)
        _check(checks, lines, f"{field}_valid", rep["valid"],
               "" if rep["valid"] else f"failing: {sorted(bp.failing(rep))}")


def _suite_group_axioms(module, rng, count, bound, checks, lines):
    e = bp.identity_odatum(module)
    tallies = {"identity_laws": [], "associativity": [], "inverses": [],
               "convert_round_trip": [], "tau_multiplicative": []}
    for i in range(count):
        d1 = bp.random_odatum(module, rng, bound=bound)
        d2 = bp.random_odatum(module, rng, bound=bound)
        d3 = bp.random_odatum(module, rng, bound=bound)
        if not (bp.odatum_product(e, d1) == d1
                and bp.odatum_product(d1, e) == d1):
            tallies["identity_laws"].append(i)
        left = bp.odatum_product(bp.odatum_product(d1, d2), d3)
        right = bp.odatum_product(d1, bp.odatum_product(d2, d3))
        if left != right:
            tallies["associativity"].append(i)
        if not (bp.odatum_product(d1, bp.odatum_invert(d1)) == e
                and bp.odatum_product(bp.odatum_invert(d1), d1) == e):
            tallies["inverses"].append(i)
        back = bp.rdatum_to_odatum(bp.odatum_to_rdatum(d1))
        if not bp.odatum_equiv(back, d1)[0]:
            tallies["convert_round_trip"].append(i)
        r1 = bp.odatum_to_rdatum(d1)
        r2 = bp.odatum_to_rdatum(d2)
        if bp.tau(bp.rdatum_product(r1, r2)) != bp.lag_product(bp.tau(r1),
                                                               bp.tau(r2)):
            tallies["tau_multiplicative"].append(i)
    for name in sorted(tallies):
        _tally(checks, lines, name, count, tallies[name])


def _suite_hopf(module, rng, checks, lines):
    B = host.doubled_host(module)  # an over-capacity host exits before work
    H = host.build_supergroup(module)
    rep = host.check_hopf_axioms(H, rng=rng)
    _check(checks, lines, "host_hopf_axioms", rep["ok"],
           f"dim {H.dim}" if rep["ok"] else str(rep["failures"][:3]))
    rep = host.check_hopf_axioms(B, rng=rng)
    _check(checks, lines, "doubled_host_hopf_axioms", rep["ok"],
           f"dim {B.dim}" if rep["ok"] else str(rep["failures"][:3]))
    rep = host.check_cop_iso(B)
    _check(checks, lines, "co_opposite_iso", rep["ok"],
           "" if rep["ok"] else str(rep["failures"][:3]))
    rep = hopf.check_diag_iso(H)
    _check(checks, lines, "diagonal_comodule_iso", rep["ok"],
           "" if rep["ok"] else str(rep["failures"][:3]))


def _suite_comodule(module, rng, count, bound, checks, lines):
    # an over-capacity host or enumeration exits before drawing data
    host.doubled_host(module)
    hopf.family_alphas(module, bound)
    bad_build, bad_dim, bad_comod, bad_coinv, bad_gr = [], [], [], [], []
    for i in range(count):
        data = hopf.random_compatible_data(module, rng)
        try:
            K = hopf.build_K(data)
        except DomainError:
            bad_build.append(i)
            continue
        if K.dim != (1 << len(data.rows)) * len(data.F):
            bad_dim.append(i)
        rep = hopf.check_comodule_algebra(K, rng=rng)
        if not rep["ok"]:
            bad_comod.append(i)
        if rep["coinvariants_dim"] != 1:
            bad_coinv.append(i)
        same, _why = hopf.same_tables(hopf.loewy_graded(K),
                                      hopf.build_K(data.zero_beta()))
        if not same:
            bad_gr.append(i)
    for name, failed in (("generator_valid", bad_build),
                         ("dimension_law", bad_dim),
                         ("comodule_algebra_axioms", bad_comod),
                         ("trivial_coinvariants", bad_coinv),
                         ("graded_model_match", bad_gr)):
        _tally(checks, lines, name, count, failed)


def _suite_cotensor(module, rng, count, bound, checks, lines, report_extra):
    suite = bp.suite_alphas(module, bound)
    instances = []
    failed = []
    for i in range(count):
        alpha = suite[rng.randrange(len(suite))]
        d = hopf.random_graph_datum(module, rng, alpha)
        dt = hopf.random_graph_datum(module, rng,
                                     orth.orth_identity(module.group))
        rep = hopf.verify_cotensor_iso(d, dt)
        usize = orth.u_order(d.alpha)
        wdim = rep["W_product_dim"]
        instances.append({"dim_cot": rep["dim_cot"],
                          "dim_expected": rep["dim_expected"],
                          "W_product_dim": wdim,
                          "U_size": usize,
                          "ok": rep["ok"]})
        lines.append(f"instance {i}: dim {rep['dim_cot']} == expected "
                     f"{rep['dim_expected']} (2^{wdim} x |U| "
                     f"{usize}): {'ok' if rep['ok'] else 'FAIL'}")
        if not rep["ok"]:
            failed.append(i)
    report_extra["instances"] = instances
    _tally(checks, lines, "cotensor_iso", count, failed)


SUITES = ("hopf", "comodule", "cotensor", "group-axioms", "all")


def cmd_verify(suite, spec, seed, count, bound):
    module = parse_module(spec)
    rng = random.Random(seed)
    checks = []
    lines = [f"command: verify {suite}", _module_line(module),
             f"seed: {seed}"]
    report = {"command": f"verify {suite}", "seed": seed,
              "group": module.group.to_json(),
              "u": list(module.u.coords), "dim_V": module.dim}
    _suite_datum(module, spec, checks, lines)
    if suite in ("group-axioms", "all"):
        _suite_group_axioms(module, rng, count or 25, bound, checks, lines)
    if suite in ("hopf", "all"):
        _suite_hopf(module, rng, checks, lines)
    if suite in ("comodule", "all"):
        _suite_comodule(module, rng, count or 10, bound, checks, lines)
    if suite in ("cotensor", "all"):
        _suite_cotensor(module, rng, count or 8, bound, checks, lines, report)
    ok = all(c["ok"] for c in checks)
    report["checks"] = checks
    report["ok"] = ok
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return ok, report, lines


# -- entry point ------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="brpic-kit",
        description="Exact Brauer-Picard data for finite supergroup algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--spec", required=True,
                        help="JSON problem file")
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
        sp.add_argument("--bound", type=int, default=None,
                        help="enumeration size bound")

    sp = sub.add_parser("orth", help="enumerate orthogonal automorphisms")
    common(sp)

    sp = sub.add_parser("brpic", help="describe or operate on data")
    sp.add_argument("verb", choices=["describe", "mul", "inv", "equiv",
                                     "convert"])
    common(sp)

    sp = sub.add_parser("verify", help="run a seeded verification suite")
    sp.add_argument("suite_pos", nargs="?", default=None, choices=SUITES,
                    metavar="suite")
    sp.add_argument("--suite", default=None, choices=SUITES)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--count", type=int, default=None,
                    help="seeded instances per suite")
    common(sp)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec)
        bound = _int_field(spec, "bound", 256, args.bound, positive=True)
        if args.command == "orth":
            ok, report, lines = cmd_orth(spec, bound)
        elif args.command == "brpic":
            ok, report, lines = cmd_brpic(args.verb, spec, bound)
        else:
            suite = args.suite_pos or args.suite or spec.get("suite") or "all"
            if suite not in SUITES:
                raise SpecError("suite", f"unknown suite {suite!r}")
            seed = _int_field(spec, "seed", 0, args.seed)
            count = _int_field(spec, "count", None, args.count, positive=True)
            ok, report, lines = cmd_verify(suite, spec, seed, count, bound)
    except (SpecError, BrpicError) as e:
        print(str(e), file=sys.stderr)
        return (2 if isinstance(e, (SpecError, InputValidationError, DomainError))
                else 3 if isinstance(e, CapacityError) else 1)
    return _write(json.dumps(report, sort_keys=True, indent=2) if args.as_json
                  else "\n".join(lines), 0 if ok else 1)


def _write(text, code) -> int:
    """Print the report and return code.  A reader that closed the pipe
    gets stdout pointed at os.devnull, as the Python docs advise, so that
    the final flush at exit writes nowhere instead of raising."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
