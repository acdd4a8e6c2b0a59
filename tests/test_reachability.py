"""Every definition in src/brpickit is reachable from what runs.

The roots are cli.main, every module-level statement other than a def or a
class (it runs at import), and every name that perfbench/*.py mentions.  A
def or class is reached when reached code names it, directly, through a
`from .m import name` import, or as `alias.name` after `from . import m as
alias`.

A class's methods other than dunders are checked per class, by running
them: a fresh interpreter (this file run as a script) imports brpickit and
runs a smoke set of `brpic-kit` commands and one instance of each
perfbench workload under a trace function, and each method's code object
must be among those entered.  A method that nothing enters fails even when
another class has a live method of the same name.

    PYTHONPATH=src python tests/test_reachability.py   # prints what ran
"""

import ast
import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(node, module, modules, names):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield names.get(sub.id, (module, sub.id))
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            yield modules[sub.value.id], sub.attr


def _mentioned(path):
    for sub in ast.walk(ast.parse(path.read_text())):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unreachable(src, perfbench):
    """Sorted "module.name" of the defs and classes no root reaches."""
    defs, roots = {}, [("cli", "main")]
    for path in sorted(src.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        modules, names = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    local = a.asname or a.name
                    if node.module is None:
                        modules[local] = a.name
                    else:
                        names[local] = (node.module, a.name)
        for node in tree.body:
            refs = list(_references(node, module, modules, names))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = refs
            else:
                roots.extend(refs)
    used = {name for path in perfbench.glob("*.py") for name in _mentioned(path)}
    roots.extend(key for key in defs if key[1] in used)
    seen, stack = set(), roots
    while stack:
        key = stack.pop()
        if key in defs and key not in seen:
            seen.add(key)
            stack.extend(defs[key])
    return sorted(".".join(key) for key in defs if key not in seen)


def test_every_src_definition_is_reachable():
    assert unreachable(ROOT / "src" / "brpickit", ROOT / "perfbench") == []


SWEEDLER = {"group": [2], "u": [1], "V": [[1]]}
Z2Z2 = {"group": [2, 2], "u": [1, 1], "V": [[1, 0], [0, 1]]}
# |G x G| = 100 > 64: the doubled host adds group elements digit by digit
Z10 = {"group": [10], "u": [5], "V": [[1]]}
ODATUM = {"T": [["1/2@1", "0@1"], ["3@1", "2@1"]],
          "alpha": {"matrix": [[0, 1], [1, 0]]}}
RDATUM = {"W": {"ambient": 2, "basis": [["1@1", "2@1"]]},
          "beta": {"gram": [["3@1"]]}, "alpha": {"matrix": [[1, 0], [0, 1]]}}
# the product's C block adds zeta_4 to zeta_3, two conductors that meet
# only in Q(zeta_12)
MIXED = {"datum": {"T": [["-1 + -1*z@3", "0@1"], ["1*z@4", "1*z@3"]],
                   "alpha": {"matrix": [[1, 0], [0, 1]]}},
         "datum2": {"T": [["1@1", "0@1"], ["1@1", "1@1"]],
                    "alpha": {"matrix": [[1, 0], [0, 1]]}}}
COMMANDS = [
    (SWEEDLER, ["orth"]), (Z2Z2, ["brpic", "describe"]),
    *((SWEEDLER | {"datum": d, "datum2": d}, ["brpic", verb])
      for d in (ODATUM, RDATUM) for verb in ("mul", "inv", "equiv", "convert")),
    (SWEEDLER | MIXED, ["brpic", "mul"]),
    (SWEEDLER, ["verify", "all", "--seed", "3", "--count", "2"]),
    (Z10, ["verify", "hopf", "--seed", "1"]),
]


def smoke():
    """Run every command of COMMANDS, with and without --json, and one
    instance of each perfbench workload."""
    from brpickit import cli
    import workloads as wl

    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        for obj, argv in COMMANDS:
            spec.write_text(json.dumps(obj))
            for flags in ([], ["--json"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv + flags + ["--spec", str(spec)]) == 0, argv
    lib = wl.Lib()
    for workload in wl.WORKLOADS.values():
        _, module, alphas = wl.setup(workload, lib)
        assert workload.instance(lib, module, alphas, random.Random(1))[2]


def entered_methods():
    """(module, first line) of the brpickit code objects a smoke() run in
    a fresh interpreter enters; a decorated function's code starts at its
    first decorator."""
    run = subprocess.run([sys.executable, __file__], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    return {tuple(key) for key in json.loads(run.stdout)}


def unentered_methods(src, entered):
    """Sorted "module.Class.method" of the non-dunder methods of src's
    classes whose code object is not among entered."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (
                        item.name.startswith("__") and item.name.endswith("__")):
                    continue
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                if (path.stem, first) not in entered:
                    out.append(f"{path.stem}.{node.name}.{item.name}")
    return sorted(out)


def test_every_src_method_is_entered():
    assert unentered_methods(ROOT / "src" / "brpickit", entered_methods()) == []


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    codes = set()
    # called on 'call' events only, since it returns None
    sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))
    smoke()
    sys.settrace(None)
    package = ROOT / "src" / "brpickit"
    print(json.dumps(sorted({(Path(c.co_filename).stem, c.co_firstlineno)
                             for c in codes
                             if Path(c.co_filename).parent == package})))
