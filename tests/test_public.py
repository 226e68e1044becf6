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
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | _attributes(node)


def _attributes(node) -> set:
    """The attribute names that a syntax tree mentions."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


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
    """Top-level functions and classes of src/sepkit, and named methods of
    its classes, that nothing reaches.

    The roots are ``cli.main``, ``sepkit.__all__``, the names the acceptance
    tests import, the names the benchmark's jobs and set-up probe use, the
    module-level statements of the package, and the dunder functions that
    the interpreter calls.  Reached code reaches every top-level definition
    whose name it mentions, as a name or as an attribute.  A named
    (non-dunder) method of a reached class is reached when its name appears
    as an attribute in reached code, the acceptance tests and the jobs and
    probe included.  Dunder methods go with their class: operators cannot be
    resolved statically.
    """
    units, module_of, roots = {}, {}, {"main", *sepkit.__all__}
    attrs = set()  # attribute names read by reached code
    for fn in sorted(os.listdir(os.path.join(SRC, "sepkit"))):
        if not fn.endswith(".py"):
            continue
        for stmt in _parse("src", "sepkit", fn).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                assert stmt.name not in units, f"{stmt.name} is defined twice"
                module_of[stmt.name] = fn[:-3]
                if isinstance(stmt, ast.FunctionDef):
                    units[stmt.name] = [stmt]
                    continue
                # a class without its named methods, and each of those as a unit
                named = [m for m in stmt.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
                units[stmt.name] = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                units[stmt.name] += [m for m in stmt.body if m not in named]
                units.update({f"{stmt.name}.{m.name}": [m] for m in named})
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _references(stmt)
                attrs |= _attributes(stmt)
    roots |= {name for name in units if name.startswith("__")}
    for tree in (_parse("tests", "test_acceptance.py"), _parse("sepbench", "jobs.py"), _parse("sepbench", "probe.py")):
        roots |= _sepkit_names(tree)
        attrs |= _attributes(tree)

    def is_reached(unit):
        cls, _, method = unit.partition(".")
        return cls in reached and method in attrs if method else unit in roots

    reached = set()
    while new := {unit for unit in set(units) - reached if is_reached(unit)}:
        reached |= new
        for unit in new:
            for node in units[unit]:
                roots |= _references(node)
                attrs |= _attributes(node)
    unreached = {unit for unit in set(units) - reached if "." not in unit or unit.partition(".")[0] in reached}
    return sorted(f"{module_of[unit.partition('.')[0]]}.{unit}" for unit in unreached)


def test_every_definition_is_reached():
    """The package ships only what a subcommand, a public name, an acceptance
    test or the benchmark reaches, down to named methods; test referees live
    in tests/."""
    assert unreached_definitions() == []
