"""numpy is the only runtime dependency: importing the package, its CLI and
its model-file code loads no other module from outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, so that the test suite's own imports do not count
PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import canoc, canoc.cli, canoc.models.persist
loaded = sorted(name for name in set(sys.modules) - before if "." not in name)
print(json.dumps(loaded))
"""


def test_package_imports_only_numpy_and_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = json.loads(result.stdout)
    assert "canoc" in loaded
    foreign = [name for name in loaded
               if name != "canoc" and name not in sys.stdlib_module_names]
    assert not foreign, foreign
