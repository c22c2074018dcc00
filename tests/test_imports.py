"""rmkit runs on the standard library and numpy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Diffs sys.modules against its state before the import: site may preload
# third-party packages that rmkit never asks for.  Dunder names are aliases,
# such as multiprocessing's __mp_main__ for __main__, not packages.
_PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import rmkit
names = sorted(info.name for info in pkgutil.iter_modules(rmkit.__path__))
for name in names:
    __import__(f"rmkit.{name}")
tops = {module.partition(".")[0] for module in set(sys.modules) - before
        if not module.startswith("__")}
print(json.dumps([names, sorted(tops - set(sys.stdlib_module_names) - {"rmkit", "numpy"})]))
"""


def test_every_module_imports_only_stdlib_and_numpy():
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    names, foreign = json.loads(run.stdout)
    assert names == sorted(p.stem for p in (SRC / "rmkit").glob("*.py") if p.stem != "__init__")
    assert foreign == []
