import ast
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


# the package's layers, lowest first: a module imports only from lower layers
LAYERS = (
    ("errors", "expressions"),
    ("geometry",),
    ("linalg",),
    ("diagnostics",),
    ("cell_problem", "transport"),
    ("micro", "macro"),
    ("verification",),
    ("config",),
    ("cli",),
    ("__init__",),
)
LAYER = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def _relative_imports(path):
    """(source module or None, imported names) of every ``from .x import`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, tuple(alias.name for alias in node.names)


def test_imports_go_one_way():
    modules = {path.stem: path for path in Path(porodrift.__file__).parent.glob("*.py")}
    assert set(modules) == set(LAYER)
    upward = []
    for name, path in modules.items():
        for source, names in _relative_imports(path):
            if (name, source, names) == ("cli", None, ("__version__",)):
                continue  # the version string lives in the package namespace
            if source is None or LAYER[source] >= LAYER[name]:
                upward.append(f"{name}: from .{source or ''} import {', '.join(names)}")
    assert upward == []
