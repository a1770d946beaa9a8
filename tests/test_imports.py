"""Every ``repro`` package imports as the first import of a fresh interpreter.

Import cycles between packages only show when a process imports one of
them before the others, which a test session (having imported most of
the tree already) never does. So each package, and ``repro.radio.port``
(whose package cycled through ``repro.android.device``), is imported
alone in its own subprocess.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
FIRST_IMPORTS = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
) + ["repro.radio.port"]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_imports_first_in_a_fresh_interpreter(module):
    pythonpath = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
