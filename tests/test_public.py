"""The public names: `__all__`, the lazy name->module table and what each
name resolves to."""

import ast
import json
import os
import subprocess
import sys

import sepkit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# run in a fresh interpreter, so that no earlier import hides a stale entry
PROBE = """
import json, sys
import sepkit
loaded = sorted(n for n in sys.modules if n.startswith("sepkit."))
defined = {}
for name in sepkit.__all__:
    try:
        obj = getattr(sepkit, name)
    except AttributeError as exc:
        defined[name] = repr(exc)
        continue
    module = sys.modules[f"sepkit.{sepkit._MODULE_OF[name]}"]
    defined[name] = getattr(module, name, None) is obj and getattr(obj, "__module__", None) == module.__name__
print(json.dumps({"loaded": loaded, "defined": defined}))
"""


def probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_is_the_lazy_table():
    assert sorted(sepkit.__all__) == sorted(sepkit._MODULE_OF)
    assert len(set(sepkit.__all__)) == len(sepkit.__all__)


def test_every_name_is_defined_in_its_module():
    """Each public name resolves to an object that its mapped module defines,
    not one that the module merely imports."""
    defined = probe()["defined"]
    assert defined == {name: True for name in sepkit.__all__}


def test_bare_import_loads_no_layer():
    assert probe()["loaded"] == []


# -- every top-level definition in src/sepkit is reachable ---------------------

REPO = os.path.dirname(SRC)


def _parse(*path):
    with open(os.path.join(REPO, *path)) as fh:
        return ast.parse(fh.read())


def _references(node) -> set:
    """The names and attribute names that a syntax tree mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _sepkit_names(tree) -> set:
    """Names a file imports from sepkit or reads off sepkit and its modules
    (``sepkit.is_cl``, ``sepkit.cli.build_parser``)."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("sepkit"):
            names |= {alias.name for alias in n.names}
        elif isinstance(n, ast.Attribute):
            base = n.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id == "sepkit":
                names.add(n.attr)
    return names


def unreached_definitions() -> list[str]:
    """Top-level functions and classes of src/sepkit that nothing reaches.

    The roots are ``cli.main``, ``sepkit.__all__``, the names the acceptance
    tests import, the names the benchmark's jobs and set-up probe use, the
    module-level statements of the package, and the dunder functions that
    the interpreter calls.  A reached definition reaches every top-level
    definition whose name it mentions, as a name or as an attribute; a
    class counts as one definition with all its methods.
    """
    defs, roots = {}, {"main", *sepkit.__all__}
    for fn in sorted(os.listdir(os.path.join(SRC, "sepkit"))):
        if not fn.endswith(".py"):
            continue
        for stmt in _parse("src", "sepkit", fn).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                assert stmt.name not in defs, f"{stmt.name} is defined twice"
                defs[stmt.name] = (fn[:-3], stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _references(stmt)
    roots |= {name for name in defs if name.startswith("__")}
    roots |= _sepkit_names(_parse("tests", "test_acceptance.py"))
    roots |= _sepkit_names(_parse("sepbench", "jobs.py")) | _sepkit_names(_parse("sepbench", "probe.py"))
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for ref in _references(defs[name][1]) if ref in defs]
    return sorted(f"{defs[name][0]}.{name}" for name in set(defs) - reached)


def test_every_definition_is_reached():
    """The package ships only what a subcommand, a public name, an acceptance
    test or the benchmark reaches; test referees live in tests/."""
    assert unreached_definitions() == []
