import os
import subprocess
import sys
from pathlib import Path

import qaspectral


def test_import_leaves_scipy_unloaded():
    # the package needs numpy only; importing scipy would cost start-up time and memory
    env = {**os.environ, "PYTHONPATH": str(Path(qaspectral.__file__).parents[1])}
    code = "import sys, qaspectral; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
