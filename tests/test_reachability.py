"""Every definition in src/brpickit is reachable from what runs.

The roots are cli.main, every module-level statement other than a def or a
class (it runs at import), and every name that perfbench/*.py mentions.  A
def or class is reached when reached code names it, directly, through a
`from .m import name` import, or as `alias.name` after `from . import m as
alias`.  A class's methods other than dunders are checked by name: each
must be named (an attribute, a name or a string constant) somewhere in
src/brpickit or perfbench.
"""

import ast
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


def unnamed_methods(src, perfbench):
    """Sorted "module.Class.method" of the non-dunder methods of src's
    classes whose name no code in src or perfbench mentions."""
    named = {name for path in [*src.glob("*.py"), *perfbench.glob("*.py")]
             for name in _mentioned(path)}
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name not in named
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    out.append(f"{path.stem}.{node.name}.{item.name}")
    return sorted(out)


def test_every_src_method_is_named():
    assert unnamed_methods(ROOT / "src" / "brpickit", ROOT / "perfbench") == []
