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


def _unused_imports(path):
    """Names that ``path`` imports and never reads, except on lines marked ``# noqa: F401``."""
    source = path.read_text()
    tree = ast.parse(source)
    exempt = {number for number, line in enumerate(source.splitlines(), 1)
              if "# noqa: F401" in line}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    imported = {(alias.asname or alias.name).split(".")[0]: alias.lineno
                for node in imports for alias in node.names if alias.lineno not in exempt}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in read)


def test_modules_read_every_name_they_import():
    paths = sorted(Path(porodrift.__file__).parent.glob("*.py"))
    assert [entry for path in paths if path.name != "__init__.py"
            for entry in _unused_imports(path)] == []
