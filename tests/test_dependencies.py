"""numpy is the only runtime dependency: importing the whole package
(``repro`` and every subpackage) must not load ``networkx`` or ``scipy``.
Runs in a fresh interpreter, so what other tests imported cannot mask it."""

import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.ispkg:
        importlib.import_module(module.name)
print(sorted(name for name in ("networkx", "scipy") if name in sys.modules))
"""


def test_no_graph_or_scipy_import():
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip().splitlines()[-1] == "[]"
