"""Package layout: the package root imports nothing, so each module must
import on its own; an import-order dependency between modules would show
only in a fresh interpreter."""

import os
import pkgutil
import subprocess
import sys

import pytest

import hybridgnn

MODULES = sorted(m.name for m in pkgutil.iter_modules(hybridgnn.__path__))


def test_every_module_is_found():
    assert {"autodiff", "cli", "data", "extractor", "model", "training"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridgnn.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", f"import hybridgnn.{module}"], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
