"""The three h* methods stay independent: closed formulas (`formulas`),
lattice-point counting (`counting`) and the Groebner triangulation
(`grobner` with `triangulation`) load none of each other's modules.

The one edge between methods that is not the triangulation's own,
`grobner.buchberger_verify` reading the counting oracle's h*, is an import
inside that function, so it is a verification edge: no h* method loads it."""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

METHOD_MODULES = {"formulas", "counting", "grobner", "triangulation"}


def _imported(node) -> set:
    """The sepkit modules that the statements under a node import, outside
    any function body."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.ImportFrom):
            if child.level == 1:
                found |= {child.module.split(".")[0]} if child.module else {a.name for a in child.names}
            elif (child.module or "").startswith("sepkit."):
                found.add(child.module.split(".")[1])
        elif isinstance(child, ast.Import):
            found |= {a.name.split(".")[1] for a in child.names if a.name.startswith("sepkit.")}
        found |= _imported(child)
    return found


def module_level_imports(module: str) -> set:
    with open(os.path.join(SRC, "sepkit", f"{module}.py")) as fh:
        return _imported(ast.parse(fh.read()))


@pytest.mark.parametrize(
    "module,allowed",
    [("formulas", set()), ("counting", set()), ("grobner", set()), ("triangulation", {"grobner"})],
)
def test_module_level_imports(module, allowed):
    assert module_level_imports(module) & METHOD_MODULES == allowed


PROBE = """
import sys
from sepkit import Signature, {name}
{name}(Signature((1, 2, 2)))
{name}(Signature((1, 1, 2, 2)))
print(" ".join(sorted(n[len("sepkit."):] for n in sys.modules if n.startswith("sepkit."))))
"""


@pytest.mark.parametrize(
    "name,home,absent",
    [
        ("hstar_triangulation", "triangulation", {"counting", "formulas"}),
        ("hstar_oracle", "counting", {"grobner", "triangulation", "formulas"}),
        ("closed_form_hstar", "formulas", {"counting", "grobner", "triangulation"}),
    ],
)
def test_each_method_loads_no_other(name, home, absent):
    """Computing h* by one method, in a fresh interpreter, loads no module
    of the others."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(name=name)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert home in loaded
    assert not loaded & absent
