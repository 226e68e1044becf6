"""The public names: `__all__`, the lazy name->module table and what each
name resolves to."""

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
