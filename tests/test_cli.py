import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from brpickit import abelian as ab
from brpickit import brpic as bp
from brpickit import cli
from brpickit import cyclo
from brpickit import hopf
from brpickit import linalg as la
from brpickit import orth


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SWEEDLER = {"group": [2], "u": [1], "V": [[1]]}


def test_orth_counts(tmp_path, capsys):
    spec = _write(tmp_path, "sw.json", SWEEDLER)
    code, out, err = _run(capsys, ["orth", "--spec", spec])
    assert code == 0 and err == ""
    assert "orthogonal automorphisms: 2" in out
    spec = _write(tmp_path, "z3.json", {"group": [3], "u": [0], "V": []})
    code, out, _ = _run(capsys, ["orth", "--spec", spec])
    assert code == 0
    assert "orthogonal automorphisms: 4" in out


def test_orth_json_round_trip(tmp_path, capsys):
    spec = _write(tmp_path, "sw.json", SWEEDLER)
    code, out, _ = _run(capsys, ["orth", "--spec", spec, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2 and len(obj["automorphisms"]) == 2
    assert json.loads(json.dumps(obj)) == obj
    sizes = sorted(a["U_size"] for a in obj["automorphisms"])
    assert sizes == [2, 4]


def test_describe_sweedler(tmp_path, capsys):
    spec = _write(tmp_path, "sw.json", SWEEDLER)
    code, out, _ = _run(capsys, ["brpic", "describe", "--spec", spec,
                                 "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["component_count"] == 2
    assert all(c["A_dim"] == 1 and c["C_dim"] == 1
               for c in obj["components"])


def test_mul_identity_is_identity(tmp_path, capsys):
    spec = _write(tmp_path, "mul.json",
                  SWEEDLER | {"datum": "identity", "datum2": "identity"})
    code, out, _ = _run(capsys, ["brpic", "mul", "--spec", spec, "--json"])
    assert code == 0
    obj = json.loads(out)
    module = cli.parse_module(SWEEDLER)
    prod = bp.ODatum.from_json(module, obj["product"])
    assert prod == bp.identity_odatum(module)
    assert obj["validation"]["valid"]


def test_convert_graph_datum(tmp_path, capsys):
    datum = {"W": {"ambient": 2, "basis": [["1@1", "2@1"]]},
             "beta": {"gram": [["0@1"]]},
             "alpha": {"matrix": [[1, 0], [0, 1]]}}
    spec = _write(tmp_path, "conv.json", SWEEDLER | {"datum": datum})
    code, out, _ = _run(capsys, ["brpic", "convert", "--spec", spec,
                                 "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "odatum"
    T = obj["converted"]["T"]
    # graph v + 2*vhat carries T = [[a, 0], [c, 1/a]] with a = 1/2
    assert T[0][0] == "1/2@1" and T[1][1] == "2@1"
    assert T[0][1] == "0@1"
    assert obj["validation"]["valid"]
    # converting back yields an equivalent relation datum
    spec2 = _write(tmp_path, "conv2.json",
                   SWEEDLER | {"datum": obj["converted"]})
    code, out, _ = _run(capsys, ["brpic", "convert", "--spec", spec2,
                                 "--json"])
    assert code == 0
    back = json.loads(out)
    module = cli.parse_module(SWEEDLER)
    d0 = bp.RDatum.from_json(module, datum)
    d1 = bp.RDatum.from_json(module, back["converted"])
    assert bp.rdatum_equiv(d0, d1)[0]


def test_inv_then_mul_gives_identity(tmp_path, capsys):
    datum = {"T": [["1/2@1", "0@1"], ["3@1", "2@1"]],
             "alpha": {"matrix": [[1, 0], [0, 1]]}}
    spec = _write(tmp_path, "inv.json", SWEEDLER | {"datum": datum})
    code, out, _ = _run(capsys, ["brpic", "inv", "--spec", spec, "--json"])
    assert code == 0
    inv = json.loads(out)["inverse"]
    spec2 = _write(tmp_path, "mul2.json",
                   SWEEDLER | {"datum": datum, "datum2": inv})
    code, out, _ = _run(capsys, ["brpic", "mul", "--spec", spec2, "--json"])
    assert code == 0
    obj = json.loads(out)
    module = cli.parse_module(SWEEDLER)
    prod = bp.ODatum.from_json(module, obj["product"])
    assert prod == bp.identity_odatum(module)


def test_equiv_self(tmp_path, capsys):
    datum = {"T": [["1/2@1", "0@1"], ["3@1", "2@1"]],
             "alpha": {"matrix": [[1, 0], [0, 1]]}}
    spec = _write(tmp_path, "eq.json",
                  SWEEDLER | {"datum": datum, "datum2": datum})
    code, out, _ = _run(capsys, ["brpic", "equiv", "--spec", spec, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["equivalent"] and obj["witness"] == [[0], [0]]


# The validation report of each `brpic mul|inv|convert --json` output, key
# for key: the binding conditions, 'valid', and the informational flags.
_ODATUM_REPORT = {"B_zero": True, "duality": True, "equivariant": True,
                  "equivariant_full_U": False,
                  "equivariant_full_diagonal": True, "invertible": True,
                  "uu_in_U": True, "valid": True}
_RDATUM_REPORT = {"W_stable": True, "W_stable_full_U": False,
                  "W_stable_full_diagonal": True, "axis_clear": True,
                  "beta_invariant": True, "beta_invariant_full_U": False,
                  "beta_symmetric": True, "uu_in_U": True, "valid": True}


def test_validation_reports_pinned(tmp_path, capsys):
    d1 = {"T": [["1/2@1", "0@1"], ["3@1", "2@1"]],
          "alpha": {"matrix": [[1, 0], [0, 1]]}}
    d2 = {"T": [["2@1", "0@1"], ["1@1", "1/2@1"]],
          "alpha": {"matrix": [[0, 1], [1, 0]]}}

    def run(verb, **data):
        spec = _write(tmp_path, "pin.json", SWEEDLER | data)
        code, out, err = _run(capsys, ["brpic", verb, "--spec", spec,
                                       "--json"])
        assert code == 0 and err == ""
        return json.loads(out)

    conv = run("convert", datum=d2)
    r2 = conv["converted"]
    assert r2 == {"W": {"ambient": 2, "basis": [["1@1", "1/2@1"]]},
                  "beta": {"gram": [["1/2@1"]]},
                  "alpha": {"matrix": [[0, 1], [1, 0]]}}
    r1 = run("convert", datum=d1)["converted"]
    assert conv["validation"] == _RDATUM_REPORT
    assert run("mul", datum=d1, datum2=d2)["validation"] == _ODATUM_REPORT
    assert run("inv", datum=d2)["validation"] == _ODATUM_REPORT
    assert run("mul", datum=r1, datum2=r2)["validation"] == _RDATUM_REPORT
    assert run("inv", datum=r2)["validation"] == _RDATUM_REPORT
    assert run("convert", datum=r2)["validation"] == _ODATUM_REPORT


def test_validation_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = _run(capsys, ["orth", "--spec", str(bad)])
    assert code == 2 and out == "" and "spec" in err
    spec = _write(tmp_path, "nog.json", {"u": [1], "V": []})
    code, _, err = _run(capsys, ["orth", "--spec", spec])
    assert code == 2 and err.startswith("group")
    spec = _write(tmp_path, "badu.json", {"group": [4], "u": [1], "V": []})
    code, _, err = _run(capsys, ["orth", "--spec", spec])
    assert code == 2 and err.startswith("u")
    spec = _write(tmp_path, "badv.json", {"group": [2], "u": [1], "V": [[0]]})
    code, _, err = _run(capsys, ["orth", "--spec", spec])
    assert code == 2 and err.startswith("V[0]")
    spec = _write(tmp_path, "z30.json", {"group": [3], "u": [0], "V": []})
    code, _, err = _run(capsys, ["verify", "all", "--spec", spec])
    assert code == 2 and err.startswith("u")
    spec = _write(tmp_path, "nodat.json", SWEEDLER)
    code, _, err = _run(capsys, ["brpic", "mul", "--spec", spec])
    assert code == 2 and err.startswith("datum")


def test_capacity_exit_code(tmp_path, capsys):
    spec = _write(tmp_path, "z22.json",
                  {"group": [2, 2], "u": [1, 1], "V": [[1, 0]]})
    code, out, err = _run(capsys, ["orth", "--spec", spec, "--bound", "10"])
    assert code == 3 and out == "" and "bound" in err


def test_verify_all_passes(tmp_path, capsys):
    spec = _write(tmp_path, "sw.json", SWEEDLER)
    code, out, _ = _run(capsys, ["verify", "all", "--spec", spec,
                                 "--seed", "7", "--count", "5"])
    assert code == 0
    assert "result: PASS" in out
    assert "check cotensor_iso: pass" in out


def test_verify_corrupted_datum_fails(tmp_path, capsys):
    datum = {"T": [["1@1", "0@1"], ["0@1", "2@1"]],
             "alpha": {"matrix": [[1, 0], [0, 1]]}}
    spec = _write(tmp_path, "cor.json",
                  SWEEDLER | {"datum": datum, "suite": "group-axioms",
                              "count": 2})
    code, out, _ = _run(capsys, ["verify", "--spec", spec])
    assert code == 1
    assert "check datum_valid: FAIL" in out and "duality" in out
    assert "result: FAIL" in out


def test_verify_cotensor_dimension_lines(tmp_path, capsys):
    spec = _write(tmp_path, "z22.json",
                  {"group": [2, 2], "u": [1, 1], "V": [[1, 0]]})
    code, out, _ = _run(capsys, ["verify", "cotensor", "--spec", spec,
                                 "--seed", "3", "--count", "3"])
    assert code == 0
    for i in range(3):
        assert f"instance {i}: dim " in out
    assert "== expected" in out


def test_verify_deterministic(tmp_path, capsys):
    spec = _write(tmp_path, "sw.json", SWEEDLER)
    argv = ["verify", "comodule", "--spec", spec, "--seed", "11",
            "--count", "4", "--json"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["ok"] and json.loads(json.dumps(obj)) == obj


def test_seed_from_spec_file(tmp_path, capsys):
    spec = _write(tmp_path, "sw.json",
                  SWEEDLER | {"seed": 11, "count": 4, "suite": "comodule"})
    code, out, _ = _run(capsys, ["verify", "--spec", spec, "--json"])
    assert code == 0
    assert json.loads(out)["seed"] == 11


# sha256 of the `--json` stdout of fixed commands, recorded before the
# scalar kernel moved to integer numerators.  Z4 and Z2xZ4 compute over
# Q(i).  The six brpic entries on the two Z4 pairs and the two orth entries
# were re-recorded when scalars began to print at their least conductor;
# each new output is the old one with every scalar string read back and
# printed again ("0@4" and "1@4" became "0@1" and "1@1").
Z4 = {"group": [4], "u": [2], "V": [[1], [3]]}
Z2Z4 = {"group": [2, 4], "u": [0, 2], "V": [[0, 1]]}
Z2Z2 = {"group": [2, 2], "u": [1, 1], "V": [[1, 0], [0, 1]]}
_Z4_DATUM = {"T": [["-1 + -1*z@4", "0@1", "0@1", "0@1"],
                   ["0@1", "-3*z@4", "0@1", "0@1"],
                   ["0@1", "0@1", "-1/2 + 1/2*z@4", "0@1"],
                   ["0@1", "0@1", "0@1", "1/3*z@4"]],
             "alpha": {"matrix": [[0, 1], [1, 0]]}}
Z4_PAIR = Z4 | {"datum": _Z4_DATUM, "datum2": _Z4_DATUM}
# Relation data: `brpic convert` of a Z4 matrix datum with a nonzero C
# block (first) and of _Z4_DATUM (second), as printed before scalars were
# stored at their least conductor; W and beta mix "@1" and "@4", and the
# "0@4" and "1@4" entries are read at conductor 1.
_Z4_RDATUM = {"W": {"ambient": 4,
                    "basis": [["1@1", "0@1", "1/2@1", "0@1"],
                              ["0@4", "1@4", "0@4", "-1*z@4"]]},
              "beta": {"gram": [["0@1", "1@4"], ["1@4", "0@4"]]},
              "alpha": {"matrix": [[1, 0], [0, 1]]}}
_Z4_RDATUM2 = {"W": {"ambient": 4,
                     "basis": [["1@4", "0@4", "-1/2 + 1/2*z@4", "0@4"],
                               ["0@4", "1@4", "0@4", "1/3*z@4"]]},
               "beta": {"gram": [["0@4", "0@4"], ["0@4", "0@4"]]},
               "alpha": {"matrix": [[0, 1], [1, 0]]}}
Z4_RPAIR = Z4 | {"datum": _Z4_RDATUM, "datum2": _Z4_RDATUM2}
# random_odatum data over two suite alphas of Z2Z2 that are not their own
# inverses; the product's alpha is a third one, so `mul` and `inv` print a
# composed and an inverted alpha that are neither identity nor an input.
_Z2Z2_DATUM = {"T": [["-2@1", "0@1", "0@1", "0@1"],
                     ["0@1", "1@1", "0@1", "0@1"],
                     ["-3/2@1", "0@1", "-1/2@1", "0@1"],
                     ["0@1", "3@1", "0@1", "1@1"]],
               "alpha": {"matrix": [[0, 0, 0, 1], [0, 0, 1, 0],
                                    [0, 1, 1, 0], [1, 0, 0, 1]]}}
_Z2Z2_DATUM2 = {"T": [["3@1", "0@1", "0@1", "0@1"],
                      ["0@1", "3@1", "0@1", "0@1"],
                      ["-1@1", "0@1", "1/3@1", "0@1"],
                      ["0@1", "-1@1", "0@1", "1/3@1"]],
                "alpha": {"matrix": [[0, 0, 1, 0], [0, 0, 0, 1],
                                     [1, 0, 0, 1], [0, 1, 1, 0]]}}
Z2Z2_PAIR = Z2Z2 | {"datum": _Z2Z2_DATUM, "datum2": _Z2Z2_DATUM2}
# random_odatum data (seed 7) over two suite alphas of Z2Z4, neither its
# own inverse, whose product is a third one; their matrices have entries
# of order 2 and 4, so `mul` and `inv` compose and invert across mixed
# factor orders.
_Z2Z4_DATUM = {"T": [["-1@1", "0@1"], ["0@1", "-1@1"]],
               "alpha": {"matrix": [[0, 0, 1, 2], [0, 0, 0, 3],
                                    [1, 0, 0, 2], [1, 3, 1, 2]]}}
_Z2Z4_DATUM2 = {"T": [["-2@1", "0@1"], ["0@1", "-1/2@1"]],
                "alpha": {"matrix": [[1, 0, 0, 2], [0, 0, 0, 3],
                                     [0, 0, 1, 2], [1, 3, 1, 2]]}}
Z2Z4_PAIR = Z2Z4 | {"datum": _Z2Z4_DATUM, "datum2": _Z2Z4_DATUM2}
Z2Z2_NEXT = {"group": [2, 2], "u": [1, 1], "V": [[1, 0], [0, 1], [1, 0]]}
Z2Z4_NEXT = {"group": [2, 4], "u": [0, 2], "V": [[0, 1], [1, 1]]}
GOLDEN = [
    (Z4, ["verify", "all", "--seed", "3"],
     "f63db1a82d25e0fbbcdbfa4c6b18f1a091bca01f4662d6734ae8f773da2de771"),
    (Z4, ["verify", "comodule", "--seed", "5", "--count", "4"],
     "e47a653c41790f9bbed97176321feef598c53d1cf3fc06b9d832cfa8747676ad"),
    (Z4, ["brpic", "describe"],
     "29f847433f97511e43a24e188f2fa441a122bf2aa9089ad2b27a079c57c512cb"),
    (Z2Z4, ["verify", "cotensor", "--seed", "2", "--count", "3"],
     "a346ed0750ce29de6e57cd75685b4b706e946c646101ab57e56de6a351d7f798"),
    (Z4_PAIR, ["brpic", "mul"],
     "942e5c9e4c5eee869f0926b15df79d94129a2745afb742cec7de5a455f7d14e6"),
    (Z4_PAIR, ["brpic", "inv"],
     "10fe1e9e598be5bfdf60721e8066a44760a8c83668757530a84ac7367f1f958c"),
    (Z4_PAIR, ["brpic", "convert"],
     "e676cdfa273fd8b6a426ad5610d85411b3730aed38e7e71aef140a5a95940c06"),
    (Z4_RPAIR, ["brpic", "mul"],
     "98eb305520565e714e55fb7aba041d6130e1ca84102acfa21802813553405912"),
    (Z4_RPAIR, ["brpic", "inv"],
     "c79ac82aa1d12a4e6d4d110223c295541f04fd13b7d7d53d2b0d314ccc28d909"),
    (Z4_RPAIR, ["brpic", "convert"],
     "646f5dc2504eaf4d33c8400d48804ffd1ba1feb9616122fd246f1b066d0dc76e"),
    # recorded before elements of L x K were keyed by pairs (a, b)
    (Z2Z2, ["verify", "cotensor", "--seed", "5", "--count", "4"],
     "5e1470df18ee1daef51d943844d480c6bc27acd350d7e7c492a07af4a9344e28"),
    # recorded before products in the comodule layer were memoized
    (Z4, ["verify", "comodule", "--seed", "5", "--count", "12"],
     "fd7ec0ea54abc1f166b78b3c88174844490078e435a2373430ca589344118654"),
    (Z2Z4, ["verify", "cotensor", "--seed", "1", "--count", "6"],
     "1c3ac7297860e19b3d3b0e66fc8b61b4071f4b1ea4d37587f03a6608389f331e"),
    # recorded before K held its product as factor tables
    (Z2Z2, ["verify", "comodule", "--seed", "5", "--count", "12"],
     "b18fb5eb98e642eeb84df450069d86b9315a5b5444700f3a9e3b1f6a4c71529c"),
    # recorded before alpha composition and inversion were memoized and
    # character exponents were read from a per-module table
    (Z2Z2, ["verify", "group-axioms", "--seed", "5", "--count", "20"],
     "121e23fd3c1c2f5a3afdc40ad9de4d67e4a36bbd3b1e6194363e8fe4687b520c"),
    (Z2Z2_PAIR, ["brpic", "mul"],
     "833b0f7facce424f9012d2ac69efff82dce1da20e9f8591597656c7ffba82056"),
    (Z2Z2_PAIR, ["brpic", "inv"],
     "1f61d7648e8102220a327c8b1944f4439960b7de2a44f6c90900c8d76b5c5cb0"),
    # re-recorded when orth began to state psi_alpha on pairs of U_alpha's
    # generators (1,520 entries on Z2 x Z4, 189,440 in the full tables),
    # and again when scalars began to print at their least conductor
    (Z2Z4, ["orth"],
     "b725f8f2bdfe88e1c8859fea1039610975d98e78c09294039d5f36a058fdd3be"),
    (Z2Z2, ["orth"],
     "a4d6ccd3a71e0765a6044125cfe3fc157b0467b8321e7d9e49915f3f1b1de935"),
    # recorded before each alpha kept a table of where it sends every
    # element; describe on Z2 x Z2 lists 48 components
    (Z2Z2, ["brpic", "describe"],
     "4c324f109f2ccdcd126fc83b9507588e4a2622634c121ac137ee7b2d570d2599"),
    # recorded before the host product was read from factor tables; both
    # specs have hosts of dim 1,024
    (Z2Z2_NEXT, ["verify", "all", "--seed", "1", "--count", "4"],
     "2d9abaf7dc0c7d3202759a074200330467ad84317ef7f35a48716fbbe077987b"),
    (Z2Z4_NEXT, ["verify", "all", "--seed", "1", "--count", "4"],
     "984a6ea6c91c4787d9de508ae0d762045582d5459fd14382770589881b1eb8a7"),
    # recorded before describe counted C_dim instead of taking a kernel
    # against a generic A; Z2 x Z4 lists 128 components, Z2 with dim V 4
    # has C_dim 10
    ({"group": [2, 4], "u": [0, 2], "V": [[0, 1], [0, 3], [1, 1]]},
     ["brpic", "describe"],
     "c818f07fee66e1d0384d88940b2569263b1111e6b7d66d239642390fbe87905d"),
    ({"group": [2], "u": [1], "V": [[1], [1], [1], [1]]},
     ["brpic", "describe"],
     "18bee202f2941010ed933413b4716ebfc28cdd5b23f475833aea3d2317909dd7"),
    # recorded before alphas were composed by their position tables
    (Z2Z4_PAIR, ["brpic", "mul"],
     "68a6b3dc260e0e1409b456845efd131874ffeb24a3e7b29ec590b5985e5a4ee4"),
    (Z2Z4_PAIR, ["brpic", "inv"],
     "d673611aaaf27c4e8533ec65df1cf749e6ebca80f4b2919eb9d0d10b27f5fece"),
    # recorded before psi was held only as a TwoCocycle's exponent table;
    # the seed draws the bichar family once and order2_sign twice
    (SWEEDLER, ["verify", "comodule", "--seed", "5", "--count", "12"],
     "420b05cb02d0810a2918e6ef2b790855963377673ef28cbeeb8d92e2b578ff9e"),
    # recorded before two rationals added on their numerators, products
    # ran over nonzero supports and composites kept their reduced rows;
    # the group law over Q(i)
    ({"group": [2, 4], "u": [0, 2], "V": [[0, 1], [0, 3], [1, 1]]},
     ["verify", "group-axioms", "--seed", "1", "--count", "30"],
     "dea384569c8b4fe10be520e56ce0adbbba9b09432a7a32747bc4a771f74721a9"),
    # recorded before cotensor kept only the unknowns whose group-like
    # parts agree; 9 and 3 of the 30 instances have W_product_dim > 0, so
    # W's rows enter the cotensor kernels
    (SWEEDLER, ["verify", "cotensor", "--seed", "1", "--count", "30"],
     "950f72ad46e811b307013cf4b5d718d6cbf864ea7ae6817ed547f9c28222a264"),
    (Z2Z2, ["verify", "cotensor", "--seed", "1", "--count", "30"],
     "2cd93ff1b35ad2d19c68723b826dc84ef2e4266718f7716192d22ce96e785d61"),
    # recorded before cotensor solved one kernel for all (u, u)-classes of
    # group parts; |U_alpha| runs from 8 to 64, and instance 1 has
    # W_product_dim 1
    ({"group": [2, 4], "u": [1, 0], "V": [[1, 1]]},
     ["verify", "cotensor", "--seed", "1", "--count", "10"],
     "43ab8ff836a80a82d086a3e03de99ce7bb29c0e752bc75484a3c2ad62e575483"),
]


@pytest.mark.parametrize("spec_obj,argv,digest", GOLDEN,
                         ids=[" ".join(g[1][:2]) + f"-{k}"
                              for k, g in enumerate(GOLDEN)])
def test_json_output_golden(tmp_path, capsys, spec_obj, argv, digest):
    spec = _write(tmp_path, "spec.json", spec_obj)
    code, out, err = _run(capsys, argv + ["--spec", spec, "--json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of repr((reports, state)): the 30 reports check_comodule_algebra
# returns along `verify comodule --seed 1 --count 30` on Z4, and the state
# of the run's generator after the last.  The run samples pairs at dims 32
# and 64, so a changed draw or verdict changes the digest, while --json
# only counts instances.  Recorded before multiplicativity was decided on
# value ids.
def test_comodule_reports_golden(tmp_path, capsys, monkeypatch):
    reports, rngs = [], []
    original = hopf.check_comodule_algebra

    def recorded(A, rng=None):
        reports.append(original(A, rng=rng))
        rngs.append(rng)
        return reports[-1]

    monkeypatch.setattr(hopf, "check_comodule_algebra", recorded)
    spec = _write(tmp_path, "z4.json", Z4)
    code, out, err = _run(capsys, ["verify", "comodule", "--seed", "1",
                                   "--count", "30", "--spec", spec, "--json"])
    assert code == 0 and err == "" and len(reports) == 30
    assert max(r["checked_pairs"] for r in reports) == 256
    digest = repr((reports, rngs[-1].getstate())).encode()
    assert hashlib.sha256(digest).hexdigest() == \
        "3890aa5977111cbd200154eaff6f64efac06fd27e39d4bd0c9edd84aa67ad6f7"


def _comodule_trail(tmp_path, capsys, monkeypatch, spec_obj):
    """The check_comodule_algebra reports, the graded-model verdicts and the
    final rng state along `verify comodule --seed 1 --count 30`."""
    reports, verdicts, rngs = [], [], []
    check, same = hopf.check_comodule_algebra, hopf.same_tables

    def recorded(A, rng=None):
        reports.append(check(A, rng=rng))
        rngs.append(rng)
        return reports[-1]

    def compared(A, B):
        verdicts.append(same(A, B))
        return verdicts[-1]

    monkeypatch.setattr(hopf, "check_comodule_algebra", recorded)
    monkeypatch.setattr(hopf, "same_tables", compared)
    spec = _write(tmp_path, "spec.json", spec_obj)
    code, out, err = _run(capsys, ["verify", "comodule", "--seed", "1",
                                   "--count", "30", "--spec", spec, "--json"])
    assert code == 0 and err == ""
    assert len(reports) == len(verdicts) == 30
    return reports, verdicts, rngs[-1].getstate()


# recorded before K's entries came from one factor formula and the Loewy
# filtration was decided on per-degree blocks
@pytest.mark.parametrize("spec_obj,digest", [
    (SWEEDLER,
     "5d9e062ab49572c28602b8ed61489a3b541031b3060add477f5b486ffc5528db"),
    (Z2Z2,
     "95a6b1a67b31955d3c9089c66945f104422df4d817c8724728ee8dd2a4aa0182"),
], ids=["sweedler", "z2z2"])
def test_comodule_reports_and_graded_verdicts_golden(tmp_path, capsys,
                                                     monkeypatch, spec_obj,
                                                     digest):
    trail = _comodule_trail(tmp_path, capsys, monkeypatch, spec_obj)
    assert all(same == (True, None) for same in trail[1])
    assert hashlib.sha256(repr(trail).encode()).hexdigest() == digest


# `verify` with an invalid datum in the spec exits 1 and names the failing
# binding conditions; recorded before the check read brpic's binding report.
_Z4_BAD_ODATUM = {"T": [["2@1", "0@1", "1@1", "0@1"],
                        ["0@1", "1@1", "0@1", "0@1"],
                        ["0@1", "0@1", "1@1", "0@1"],
                        ["0@1", "0@1", "0@1", "1@1"]],
                  "alpha": {"matrix": [[1, 0], [0, 1]]}}
_Z4_BAD_RDATUM = {"W": {"ambient": 4,
                        "basis": [["1@1", "0@1", "0@1", "0@1"],
                                  ["0@1", "1@1", "0@1", "1@1"]]},
                  "beta": {"gram": [["0@1", "1@1"], ["2@1", "0@1"]]},
                  "alpha": {"matrix": [[1, 0], [0, 1]]}}
GOLDEN_INVALID = [
    (_Z4_BAD_ODATUM, "['B_zero', 'duality', 'equivariant']",
     "f35de9c5b1ac0a1e4850fe18e60ef7dcf40644a4617851dd05d586f0f08e5e2d"),
    (_Z4_BAD_RDATUM, "['axis_clear', 'beta_symmetric']",
     "231c171f28ad4be8cf55cb65066ed21152b9ae0ae5984c98db4291670c87b68a"),
]


@pytest.mark.parametrize("datum,failing,digest", GOLDEN_INVALID,
                         ids=["odatum", "rdatum"])
def test_verify_invalid_datum_golden(tmp_path, capsys, datum, failing, digest):
    spec = _write(tmp_path, "spec.json", Z4 | {"datum": datum})
    code, out, err = _run(capsys, ["verify", "group-axioms", "--seed", "1",
                                   "--count", "2", "--spec", spec, "--json"])
    assert code == 1 and err == ""
    assert json.loads(out)["checks"][0] == {
        "name": "datum_valid", "ok": False, "detail": f"failing: {failing}"}
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Fields whose wrong JSON type used to end in a traceback with exit 1, or,
# for a boolean group, u or V entry and a float, boolean or string alpha
# entry, to be read as an integer and run (alpha [[1.5, 0], [0, true]] as
# the identity), and a
# scalar whose exponent is past phi(4) = 2, which used to end in a bare
# IndexError message that did not name it.  A zero denominator used to end
# in a ZeroDivisionError traceback, and the other malformed scalars in a
# message naming only the bad fragment.  A count or bound below 1 used to
# run (count -3 checked nothing and passed) or exit 3 (bound 0).
_BAD_T = {"T": [[1]], "alpha": {"matrix": [[1, 0], [0, 1]]}}


def _t_with(scalar):
    return {"T": [[scalar, "0@1"], ["0@1", "1@1"]],
            "alpha": {"matrix": [[1, 0], [0, 1]]}}


def _w_with(scalar, ambient=2):
    return {"W": {"ambient": ambient, "basis": [["1@1", scalar]]},
            "beta": {"gram": [["0@1"]]},
            "alpha": {"matrix": [[1, 0], [0, 1]]}}


def _alpha_with(matrix):
    return {"T": [["1@1", "0@1"], ["0@1", "1@1"]], "alpha": {"matrix": matrix}}


def _bad(fields, argv, name, named="", id=None):
    return pytest.param(fields, argv, name, named,
                        id=id or name + ("-scalar" if named else ""))


BAD_FIELDS = [
    _bad({"seed": "a"}, ["verify", "all"], "seed"),
    _bad({"bound": "x"}, ["verify", "all"], "bound"),
    _bad({"count": "3"}, ["verify", "comodule"], "count"),
    _bad({"datum": _BAD_T}, ["brpic", "inv"], "datum"),
    _bad({"datum": _t_with("1*z^5@4")}, ["brpic", "inv"], "datum",
         "'1*z^5@4'"),
    _bad({"datum": _t_with("1/0@1")}, ["brpic", "inv"], "datum", "'1/0@1'",
         "datum-T-zero-denominator"),
    _bad({"datum": _w_with("1/0@1")}, ["brpic", "inv"], "datum", "'1/0@1'",
         "datum-W-zero-denominator"),
    _bad({"datum": _t_with("1@x")}, ["brpic", "inv"], "datum", "'1@x'",
         "datum-conductor"),
    _bad({"datum": _t_with("abc@4")}, ["brpic", "inv"], "datum", "'abc@4'",
         "datum-coefficient"),
    _bad({"datum": _t_with("1*z^q@4")}, ["brpic", "inv"], "datum",
         "'1*z^q@4'", "datum-exponent"),
    _bad({"datum": _t_with("@4")}, ["brpic", "inv"], "datum", "'@4'",
         "datum-empty"),
    _bad({"count": 0}, ["verify", "comodule"], "count", "got 0", "count-0"),
    _bad({"count": -3}, ["verify", "group-axioms"], "count", "got -3",
         "count-negative"),
    _bad({"bound": 0}, ["verify", "all"], "bound", "got 0", "bound-0"),
    _bad({"bound": -1}, ["orth"], "bound", "got -1", "bound-negative"),
    _bad({"group": [True]}, ["orth"], "group[0]", id="group-bool"),
    _bad({"group": [2.0]}, ["orth"], "group[0]", id="group-float"),
    _bad({"u": [True], "V": [[True]]}, ["verify", "all"], "u", id="u-bool"),
    _bad({"V": [[True]]}, ["brpic", "describe"], "V[0]", id="V-bool"),
    _bad({"V": [["1"]]}, ["brpic", "describe"], "V[0]", id="V-string"),
    _bad({"datum": _alpha_with([[1.5, 0], [0, True]])}, ["brpic", "inv"],
         "datum", "alpha.matrix: coordinates must be integers, got 1.5",
         "datum-alpha-float"),
    _bad({"datum": _alpha_with([[1, 0], [0, True]])}, ["brpic", "inv"],
         "datum", "alpha.matrix: coordinates must be integers, got True",
         "datum-alpha-bool"),
    _bad({"datum": _alpha_with([[1, 0], ["0", 1]])}, ["brpic", "inv"],
         "datum", "alpha.matrix: coordinates must be integers, got '0'",
         "datum-alpha-string"),
    _bad({"datum": _w_with("0@1", 2.0)}, ["brpic", "inv"], "datum",
         "W.ambient: must be an integer, got 2.0", "datum-W-ambient-float"),
    _bad({"datum": _w_with("0@1", True)}, ["brpic", "inv"], "datum",
         "W.ambient: must be an integer, got True", "datum-W-ambient-bool"),
    # a string where a row belongs was read letter by letter, and the
    # message quoted a fragment the spec never held
    _bad({"datum": _alpha_with([[1, 0], [0, 1]]) | {"T": ["1@1", "1@1"]}},
         ["brpic", "inv"], "datum",
         "T: row 0 must be a list of scalars, got '1@1'", "datum-T-row"),
    _bad({"datum": _w_with("0@1") | {"W": {"ambient": 2,
                                           "basis": ["1@11@1"]}}},
         ["brpic", "inv"], "datum",
         "W.basis: row 0 must be a list of scalars, got '1@11@1'",
         "datum-W-basis-row"),
    _bad({"datum": _w_with("0@1") | {"beta": {"gram": ["0@1"]}}},
         ["brpic", "inv"], "datum",
         "beta.gram: row 0 must be a list of scalars, got '0@1'",
         "datum-beta-gram-row"),
]


# An alpha.matrix that is not a homomorphism of G+G^ (rank 4 for Z2Z4) is
# refused before the orthogonality test.  The first three were recorded
# before OrthAut took the matrix's checks over; the last is a homomorphism
# that moves q, and names the field like the others.
ALPHA_REJECTIONS = [
    ([[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "generator of order 2 maps to an element whose order does not divide it"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
     "hom matrix has 3 rows for source rank 4"),
    ([[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "coordinate vector of length 3 for group of rank 4"),
    ([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "not an orthogonal automorphism of G+G^"),
]


@pytest.mark.parametrize("matrix,message", ALPHA_REJECTIONS,
                         ids=["order", "rows", "row-length", "orthogonal"])
def test_alpha_matrix_rejections_exit_2(tmp_path, capsys, matrix, message):
    datum = {"T": [["1@1", "0@1"], ["0@1", "1@1"]], "alpha": {"matrix": matrix}}
    spec = _write(tmp_path, "bad.json", Z2Z4 | {"datum": datum})
    code, out, err = _run(capsys, ["brpic", "inv", "--spec", spec])
    assert (code, out, err) == (2, "", f"datum: alpha.matrix: {message}\n")


@pytest.mark.parametrize("fields,argv,name,named", BAD_FIELDS)
def test_bad_field_exits_2(tmp_path, capsys, fields, argv, name, named):
    spec = _write(tmp_path, "bad.json", SWEEDLER | fields)
    code, out, err = _run(capsys, argv + ["--spec", spec])
    assert code == 2 and out == ""
    assert err.startswith(name + ":") and "Traceback" not in err
    assert named in err


# `brpic equiv` used to search on invalid data and print `equivalent: True`
# with exit 0; like mul, inv and convert it now refuses them.
@pytest.mark.parametrize("datum,failing", [
    (_w_with("0@1"), "['axis_clear']"), (_t_with("2@1"), "['duality']")],
    ids=["rdatum-axis", "odatum-duality"])
def test_equiv_refuses_invalid_data(tmp_path, capsys, datum, failing):
    spec = _write(tmp_path, "bad.json",
                  SWEEDLER | {"datum": datum, "datum2": datum})
    code, out, err = _run(capsys, ["brpic", "equiv", "--spec", spec])
    assert code == 2 and out == ""
    assert f"failing: {failing}" in err and "Traceback" not in err


@pytest.mark.parametrize("flags,name", [
    (["--count", "-3"], "count"), (["--count", "0"], "count"),
    (["--bound", "0"], "bound")])
def test_count_and_bound_flags_below_one_exit_2(tmp_path, capsys, flags,
                                                name):
    # the flags override valid file fields, and are checked the same way
    spec = _write(tmp_path, "sw.json", SWEEDLER | {"count": 2, "bound": 256})
    code, out, err = _run(capsys, ["verify", "group-axioms", "--spec", spec]
                          + flags)
    assert code == 2 and out == ""
    assert err.startswith(name + ":") and f"got {flags[1]}" in err


def test_cotensor_suite_composes_once_per_instance(tmp_path, capsys,
                                                   monkeypatch):
    calls = []
    original = la._compose_with_lift
    monkeypatch.setattr(la, "_compose_with_lift",
                        lambda W, Wt: calls.append(1) or original(W, Wt))
    spec = _write(tmp_path, "z2z4.json", Z2Z4)
    code, out, _ = _run(capsys, ["verify", "cotensor", "--spec", spec,
                                 "--seed", "2", "--count", "3"])
    assert code == 0 and "check cotensor_iso: pass" in out
    assert len(calls) == 3


# |G|^2 <= 256 passes the size gate, but O(G+G^) is far larger than the
# default bound: O+_6(2) has 40,320 elements, O(Z4xZ4 + dual) 4,608.
OVER_BOUND = [{"group": [2, 2, 2], "u": [1, 0, 0], "V": [[1, 0, 0]]},
              {"group": [4, 4], "u": [2, 0], "V": [[1, 0]]}]


@pytest.mark.parametrize("spec_obj", OVER_BOUND, ids=["Z2^3", "Z4xZ4"])
def test_verify_all_over_the_bound_exits_3(tmp_path, capsys, spec_obj):
    spec = _write(tmp_path, "big.json", spec_obj)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "all", "--seed", "7", "--spec", spec])
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert "more than 256" in err and "Traceback" not in err


def test_bound_option_raises_the_automorphism_cap(tmp_path, capsys):
    # Z2 x Z6 has 288 orthogonal automorphisms
    spec = _write(tmp_path, "z2z6.json",
                  {"group": [2, 6], "u": [1, 0], "V": [[1, 0]]})
    argv = ["verify", "group-axioms", "--count", "1", "--spec", spec]
    code, out, err = _run(capsys, argv)
    assert code == 3 and "more than 256" in err
    code, out, err = _run(capsys, argv + ["--bound", "512"])
    assert code == 0 and err == "" and "result: PASS" in out


def test_comodule_suite_honours_the_bound(tmp_path, capsys):
    # Z2 x Z2 has 72 orthogonal automorphisms, and its families draw
    # twists from the suite alphas
    spec = _write(tmp_path, "z2z2.json",
                  {"group": [2, 2], "u": [1, 1], "V": [[1, 0], [0, 1]]})
    argv = ["verify", "comodule", "--count", "1", "--spec", spec]
    code, out, err = _run(capsys, argv + ["--bound", "50"])
    assert code == 3 and out == "" and "more than 50" in err
    code, out, err = _run(capsys, argv + ["--bound", "72"])
    assert code == 0 and err == "" and "result: PASS" in out


def _identity_spec(rank):
    zeros = [0] * (rank - 1)
    return {"group": [2] * rank, "u": [1] + zeros, "V": [[1] + zeros],
            "datum": "identity", "datum2": "identity"}


# |G+G^| = 2^22 is above orth.MAX_DSUM_ORDER.  Identity `brpic mul` on
# Z2^11 once ran 40 s into a MemoryError traceback, and later every verb
# exited 3 on the cap.  describe enumerates O(G+G^) and still exits 3, on
# the enumeration bound.
@pytest.mark.parametrize("verb", ["describe"])
def test_identity_data_over_the_dsum_cap_exits_3(tmp_path, capsys, verb):
    spec = _write(tmp_path, "z2_11.json", _identity_spec(11))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["brpic", verb, "--spec", spec])
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "Traceback" not in err
    assert "enumeration bound" in err


# The other verbs read alpha from its matrix alone and answer within a
# second, valid, with the identity's alpha and the witness (0, 0).
@pytest.mark.parametrize("verb", ["mul", "inv", "equiv", "convert"])
def test_identity_data_over_the_dsum_cap_answers(tmp_path, capsys, verb):
    spec = _write(tmp_path, "z2_11.json", _identity_spec(11))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["brpic", verb, "--spec", spec, "--json"])
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    report = json.loads(out)
    if verb == "equiv":
        assert report["equivalent"] is True
        assert report["witness"] == [[0] * 11, [0] * 11]
    else:
        assert report["validation"]["valid"] is True
        datum = report[{"mul": "product", "inv": "inverse",
                        "convert": "converted"}[verb]]
        assert datum["alpha"] == orth.orth_identity(
            ab.FinAbGroup([2] * 11)).to_json()


def test_closed_pipe_ends_quietly(tmp_path):
    # a reader that stops after 10 bytes of a 0.4 MB report: the run keeps
    # its own exit code and writes nothing to stderr
    spec = _write(tmp_path, "z2z4.json", Z2Z4)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "brpickit", "orth", "--json", "--spec", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == b'{\n  "autom' and err == b""


def test_inverse_of_identity_above_4096(tmp_path, capsys):
    # |G+G^| = 2^14 exited 3 under a limit of inversion alone
    spec = _write(tmp_path, "z2_7.json", _identity_spec(7))
    code, out, err = _run(capsys, ["brpic", "inv", "--spec", spec, "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["validation"]["valid"] is True
    assert report["inverse"]["alpha"] == orth.orth_identity(
        ab.FinAbGroup([2] * 7)).to_json()


def _swap_rows(rank):
    # (g, chi) -> (chi, g) coordinatewise: orthogonal, U_alpha = G x G
    return [[1 if j == (i + rank) % (2 * rank) else 0
             for j in range(2 * rank)] for i in range(2 * rank)]


# U_alpha of the swap on Z2^7 has 2^14 elements.  brpic reads U_alpha's
# generators off alpha's matrix and builds no Twist at all.
def test_swap_on_z2_7_builds_no_twisted_subgroup(tmp_path, capsys,
                                                monkeypatch):
    datum = {"T": [["1@1", "0@1"], ["0@1", "1@1"]],
             "alpha": {"matrix": _swap_rows(7)}}
    spec = _write(tmp_path, "swap7.json",
                  _identity_spec(7) | {"datum": datum})

    def refuse(*args):
        raise AssertionError("a Twist was built")

    monkeypatch.setattr(orth, "Twist", refuse)
    for verb in ("convert", "inv"):
        start = time.perf_counter()
        code, out, err = _run(capsys, ["brpic", verb, "--spec", spec,
                                       "--json"])
        assert time.perf_counter() - start < 5
        assert code == 0 and err == ""
        assert json.loads(out)["validation"]["valid"] is True


def _z34():
    """The Z34 module of dim V 1 and the first alpha with |U_alpha| = 1,156."""
    G = ab.FinAbGroup([34])
    module = la.GModuleV(G, G.element((17,)), [G.character((1,))])
    return module, next(a for a in orth.enumerate_orth(G, 1200)
                        if orth.u_order(a) == 1156)


# Z34 has alphas with |U_alpha| = 1,156, and K reads F's law pair by pair,
# so their models build and verify cotensor passes, within 2 s (it ran in
# 0.27-0.48 s on a 2-vCPU machine).
def test_z34_model_builds_and_verify_cotensor_passes(tmp_path, capsys):
    module, alpha = _z34()
    K = hopf.build_L(module, None, None, alpha)
    assert len(K.meta["data"].psi.elements) == K.dim == 1156
    spec = _write(tmp_path, "z34.json",
                  {"group": [34], "u": [17], "V": [[1]]})
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "cotensor", "--seed", "1",
                                   "--count", "3", "--bound", "1200",
                                   "--spec", spec])
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    assert "dim 1156 == expected 1156" in out
    assert out.splitlines()[-1] == "result: PASS"


# No object of size |F|^2: build_L and check_comodule_algebra on the Z34
# model read F's law at a few pairs per element of F (1,156 in build_L, and
# 5,764 in all), against |F|^2 = 1,336,336, and its Twist keeps no other
# pair.
def test_z34_model_reads_a_multiple_of_F_law_pairs(monkeypatch):
    module, alpha = _z34()
    orth.psi_alpha.cache_clear()  # a new Twist, whose memo holds these reads
    reads = []
    law = orth.Twist.law
    monkeypatch.setattr(orth.Twist, "law", lambda self, i, j:
                        reads.append((i, j)) or law(self, i, j))
    K = hopf.build_L(module, None, None, alpha)
    built = len(set(reads))
    assert hopf.check_comodule_algebra(K)["ok"]
    psi = K.meta["data"].psi
    n = len(psi.elements)
    assert n == 1156 and built <= 2 * n and len(set(reads)) <= 6 * n
    assert len(psi._law) == len(set(reads))


def _refuse_psi_tables(monkeypatch):
    def refuse(alpha):
        raise AssertionError("orth built a U_alpha or psi_alpha table")

    monkeypatch.setattr(orth, "u_alpha", refuse)
    monkeypatch.setattr(orth, "psi_alpha", refuse)


# sha256 of the text report, recorded before orth stated psi_alpha on
# generator pairs (Z3 x Z3 at bound 2048 exited 3 then, on a cap of 2^18
# psi entries, and was recorded after)
@pytest.mark.parametrize("spec_obj,argv,digest", [
    (Z2Z4, ["orth"],
     "8d01eb8760e68e759bd4e2a9c8e9b33c4c8dbb5dcf65679c7c53351fdf931e3e"),
    (Z2Z2, ["orth"],
     "f78db4a068d8981deb1da6fe10157ee3008f9b898888cd795dfed113c440ed0b"),
    ({"group": [3, 3], "u": [0, 0], "V": []}, ["orth", "--bound", "2048"],
     "4d4e3aded1a651773cb12e3b2d4bef04a6a61eaecea5e1d0769cd70094a97bfa"),
], ids=["Z2xZ4", "Z2xZ2", "Z3xZ3-bound-2048"])
def test_orth_text_golden(tmp_path, capsys, monkeypatch, spec_obj, argv,
                          digest):
    _refuse_psi_tables(monkeypatch)
    spec = _write(tmp_path, "spec.json", spec_obj)
    code, out, err = _run(capsys, argv + ["--spec", spec])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Inputs that exited 3 on the 2^18 cap on psi report entries, which the full
# tables needed: Z2 x Z6 at bound 512 listed 1,555,200 entries, Z34 at
# bound 1200 26,819,200; on generator pairs they list 3,480 and 208.
@pytest.mark.parametrize("spec_obj,bound,count,entries,largest_U", [
    ({"group": [2, 6], "u": [1, 0], "V": [[1, 0]]}, 512, 288, 3480, 144),
    ({"group": [34], "u": [17], "V": [[1]]}, 1200, 64, 208, 1156),
], ids=["Z2xZ6", "Z34"])
def test_orth_json_past_the_psi_table_sizes(tmp_path, capsys, monkeypatch,
                                            spec_obj, bound, count, entries,
                                            largest_U):
    _refuse_psi_tables(monkeypatch)
    spec = _write(tmp_path, "spec.json", spec_obj)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["orth", "--json", "--bound", str(bound),
                                   "--spec", spec])
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    autos = json.loads(out)["automorphisms"]
    assert len(autos) == count
    assert sum(len(a["psi"]) for a in autos) == entries
    assert max(a["U_size"] for a in autos) == largest_U


@pytest.mark.parametrize("factors", [[2], [4], [2, 2], [8], [2, 4]],
                         ids=["Z2", "Z4", "Z2xZ2", "Z8", "Z2xZ4"])
def test_orth_generator_pairs_expand_to_psi_alpha(tmp_path, capsys,
                                                  factors):
    # the --json values on pairs of U_generators, extended bilinearly, are
    # psi_alpha's exponents over U_alpha x U_alpha, and the text line
    # counts the nonzero ones
    G = ab.FinAbGroup(factors)
    N = G.exponent
    exponent = {cyclo.CycloScalar.root_of_unity(N, e).to_string(): e
                for e in range(N)}
    spec = _write(tmp_path, "spec.json",
                  {"group": factors, "u": [0] * len(factors), "V": []})
    code, out, err = _run(capsys, ["orth", "--json", "--spec", spec])
    assert code == 0 and err == ""
    autos = json.loads(out)["automorphisms"]
    code, text, err = _run(capsys, ["orth", "--spec", spec])
    assert code == 0 and err == ""
    lines = text.splitlines()[3:]
    assert len(lines) == len(autos) == len(orth.enumerate_orth(G))
    for entry, line in zip(autos, lines):
        alpha = orth.OrthAut.from_json(G, entry["alpha"])
        gens = [tuple(g) for g in entry["U_generators"]]
        values = {(tuple(g), tuple(h)): exponent[r]
                  for g, h, r in entry["psi"]}
        assert len(values) == len(entry["psi"]) == len(gens) ** 2
        psi = orth.psi_alpha(alpha)
        elems = [e.coords for e in psi.elements]
        exps = {(a, b): psi.law(i, j)[1] for i, a in enumerate(elems)
                for j, b in enumerate(elems)}
        table = oracles.expand_bicharacter(gens, values, G.factors * 2, N)
        assert table == exps, alpha
        assert entry["U_size"] == len(elems)
        nonzero = sum(e != 0 for e in exps.values())
        assert line.endswith("psi trivial" if nonzero == 0 else
                             f"psi nontrivial on {nonzero} pairs")


def test_huge_conductor_exits_3(tmp_path, capsys):
    datum = {"T": [["1@1000003", "0@1"], ["0@1", "1@1"]],
             "alpha": {"matrix": [[1, 0], [0, 1]]}}
    spec = _write(tmp_path, "bigN.json", SWEEDLER | {"datum": datum})
    start = time.perf_counter()
    code, out, err = _run(capsys, ["brpic", "inv", "--spec", spec])
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "1000003" in err and "Traceback" not in err


# The check that V pairs to -1 with u builds zeta_N at N = exponent of G; at
# Z20000 that alone took 14 s before the enumeration bound was reached.
@pytest.mark.parametrize("argv", [["orth"], ["brpic", "describe"],
                                  ["verify", "all"],
                                  ["verify", "comodule", "--count", "1"]])
def test_group_exponent_above_max_conductor_exits_3(tmp_path, capsys, argv):
    spec = _write(tmp_path, "z20000.json",
                  {"group": [20000], "u": [10000], "V": [[1]]})
    start = time.perf_counter()
    code, out, err = _run(capsys, argv + ["--spec", spec])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "group: exponent 20000" in err and "Traceback" not in err


# Drawing compatible data on these hosts ran for more than 40 s before
# build_K refused the doubled host.
OVER_CAPACITY_HOST = [{"group": [100, 100], "u": [50, 0], "V": [[1, 0]]},
                      {"group": [2] * 20, "u": [1] + [0] * 19,
                       "V": [[1] + [0] * 19]}]


@pytest.mark.parametrize("spec_obj", OVER_CAPACITY_HOST,
                         ids=["Z100xZ100", "Z2^20"])
@pytest.mark.parametrize("suite", ["comodule", "hopf"])
def test_over_capacity_doubled_host_exits_3(tmp_path, capsys, spec_obj,
                                            suite):
    spec = _write(tmp_path, "big.json", spec_obj)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["verify", suite, "--count", "1",
                                   "--spec", spec])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "host dimension" in err and "Traceback" not in err


# A cyclic factor of order 1 used to end in a KeyError traceback: the
# generator of Z1 was taken as the unreduced coordinate 1.
def test_trivial_cyclic_factor_runs(tmp_path, capsys):
    spec = _write(tmp_path, "z2z1.json",
                  {"group": [2, 1], "u": [1, 0], "V": [[1, 0]]})
    code, out, err = _run(capsys, ["orth", "--spec", spec])
    assert code == 0 and err == ""
    assert "orthogonal automorphisms: 2" in out
    for argv in (["brpic", "describe"], ["verify", "all", "--seed", "3"]):
        code, out, err = _run(capsys, argv + ["--spec", spec])
        assert code == 0 and err == ""
    assert "result: PASS" in out


# The zero-beta model of each instance shares the actions of its datum:
# before CompatibleData.zero_beta this run made 140 act_exponents calls.
def test_comodule_suite_computes_actions_once_per_datum(tmp_path, capsys,
                                                        monkeypatch):
    calls = []
    original = hopf.CompatibleData.act_exponents

    def counted(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(hopf.CompatibleData, "act_exponents", counted)
    spec = _write(tmp_path, "z4.json", Z4)
    code, out, err = _run(capsys, ["verify", "comodule", "--seed", "5",
                                   "--count", "12", "--spec", spec])
    assert code == 0 and err == "" and "result: PASS" in out
    assert len(calls) == 70


# Group work that a module or an alpha alone determines is done once: the
# character exponents of the module by its table, each composed or
# inverted alpha by the orth_compose and orth_invert memos, so that each
# distinct pair is composed and its result built as an OrthAut, which
# checks it, once.  Each product is the oracle's composed matrix.  Before both,
# this run made 12,260 ab.pair calls, and 200 alpha compositions for 75
# distinct pairs of alphas.  The bound on ab.pair is the table, dim V * |G|,
# plus the two checks that each character sends u to -1 (spec parsing and
# GModuleV).
def test_axioms_suite_computes_group_work_once(tmp_path, capsys, monkeypatch):
    module = cli.parse_module(Z2Z2)
    orth.orth_compose.cache_clear()
    orth.orth_invert.cache_clear()
    bp.suite_alphas(module)  # the suite memo is filled before counting
    pairs, composed, inverted, checks = [], set(), set(), []
    original_pair, original_compose = ab.pair, orth.orth_compose
    original_invert, original_init = orth.orth_invert, orth.OrthAut.__init__

    def counted_pair(chi, g):
        pairs.append((chi, g))
        return original_pair(chi, g)

    def counted_compose(a, b):
        composed.add((a, b))
        return original_compose(a, b)

    def counted_invert(a):
        inverted.add(a)
        return original_invert(a)

    def counted_init(self, group, matrix):
        original_init(self, group, matrix)
        checks.append(self.matrix)

    monkeypatch.setattr(ab, "pair", counted_pair)
    monkeypatch.setattr(orth, "orth_compose", counted_compose)
    monkeypatch.setattr(orth, "orth_invert", counted_invert)
    monkeypatch.setattr(orth.OrthAut, "__init__", counted_init)
    spec = _write(tmp_path, "z2z2.json", Z2Z2)
    code, out, err = _run(capsys, ["verify", "group-axioms", "--seed", "5",
                                   "--count", "20", "--spec", spec])
    assert code == 0 and err == "" and "result: PASS" in out
    assert composed and len(checks) <= len(composed) + len(inverted)
    assert len(pairs) <= module.dim * (module.group.order + 2)
    factors = module.group.factors
    assert all(original_compose(a, b).matrix == oracles.compose_matrices(
        factors, a.matrix, b.matrix) for a, b in composed)


def _axioms_verdicts(tmp_path, capsys):
    spec = _write(tmp_path, "z2z2.json", Z2Z2)
    code, out, err = _run(capsys, ["verify", "group-axioms", "--seed", "5",
                                   "--count", "6", "--json", "--spec", spec])
    assert err == ""
    verdicts = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
    assert code == (0 if all(verdicts.values()) else 1)
    return verdicts


# a datum keeps its inverse and relation form once computed, and a check
# still computes both of the sides it compares: a wrong inverse or a wrong
# relation form fails the checks that read it.  At seed 5 some d1 has
# d1 d1 != e, so d1 is no inverse of it.
def test_axioms_checks_fail_on_a_wrong_derived_value(tmp_path, capsys,
                                                     monkeypatch):
    assert all(_axioms_verdicts(tmp_path, capsys).values())
    to_relation = bp._to_relation
    # the relation form of d d, valid, and not that of d
    monkeypatch.setattr(bp, "_to_relation",
                        lambda d: to_relation(bp.odatum_product(d, d)))
    verdicts = _axioms_verdicts(tmp_path, capsys)
    assert not (verdicts["convert_round_trip"]
                and verdicts["tau_multiplicative"]), verdicts
    assert verdicts["inverses"] and verdicts["associativity"]
    monkeypatch.undo()
    monkeypatch.setattr(bp, "_invert", lambda d: d)
    verdicts = _axioms_verdicts(tmp_path, capsys)
    assert not verdicts["inverses"], verdicts
    assert verdicts["convert_round_trip"] and verdicts["tau_multiplicative"]
