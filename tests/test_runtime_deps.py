"""samvh needs numpy alone at run time: importing it loads no scipy module,
and no hashing module.

scipy stays a test dependency, as an independent reference; `import
scipy.special` alone took about 0.23 s and 21 MB on a 2-CPU x86 host, which
every CLI process would pay before any maths runs. `secrets` (for a temp
file name) brought in `hmac`, `hashlib` and OpenSSL's `_hashlib`, which
took 2-5 ms of each CLI process on the same host.
"""
import json
import os
import subprocess
import sys

import pytest

import samvh

MODULES = ["cli", "data", "evaluation", "expfam", "model", "training"]

# Imports samvh and every module of it in a fresh interpreter, and prints the
# modules found in the package, the scipy modules loaded and the hashing
# modules loaded.
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, {root!r})
import samvh
found = sorted(m.name for m in pkgutil.iter_modules(samvh.__path__))
for name in found:
    importlib.import_module("samvh." + name)
print(json.dumps([found, sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy.")),
                   sorted(m for m in {HASHING} if m in sys.modules)]))
"""

HASHING = ["_hashlib", "hashlib", "hmac", "secrets"]


@pytest.fixture(scope="module")
def probe():
    """The probe's output: modules found, scipy modules and hashing modules."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(samvh.__file__)))
    out = subprocess.run([sys.executable, "-c", PROBE.format(root=root, HASHING=HASHING)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_no_samvh_module_loads_scipy(probe):
    found, scipy_modules, _ = probe
    assert set(MODULES) <= set(found)
    assert scipy_modules == []


def test_no_samvh_module_loads_a_hashing_module(probe):
    found, _, hashing_modules = probe
    assert set(MODULES) <= set(found)
    assert hashing_modules == []
