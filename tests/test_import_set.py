import os
import subprocess
import sys
from pathlib import Path

import porodrift

# scipy subpackages the runtime must not load: together they cost about a
# third of the CLI start-up time and ~19 MB of resident memory
UNUSED_SCIPY = ("scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.fft",
                "scipy.spatial")


def test_cli_imports_only_sparse_scipy():
    src = str(Path(porodrift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, porodrift.cli, porodrift.config; "
            f"print(' '.join(m for m in {UNUSED_SCIPY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
