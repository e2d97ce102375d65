"""samvh needs numpy alone at run time: importing it loads no scipy module.

scipy stays a test dependency, as an independent reference; `import
scipy.special` alone took about 0.23 s and 21 MB on a 2-CPU x86 host, which
every CLI process would pay before any maths runs.
"""
import json
import os
import subprocess
import sys

import samvh

MODULES = ["cli", "data", "evaluation", "expfam", "model", "training"]

# Imports samvh and every module of it in a fresh interpreter, and prints the
# modules found in the package and the scipy modules loaded.
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, {root!r})
import samvh
found = sorted(m.name for m in pkgutil.iter_modules(samvh.__path__))
for name in found:
    importlib.import_module("samvh." + name)
print(json.dumps([found, sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))]))
"""


def test_no_samvh_module_loads_scipy():
    root = os.path.dirname(os.path.dirname(os.path.abspath(samvh.__file__)))
    out = subprocess.run([sys.executable, "-c", PROBE.format(root=root)],
                         capture_output=True, text=True, check=True)
    found, scipy_modules = json.loads(out.stdout)
    assert set(MODULES) <= set(found)
    assert scipy_modules == []
