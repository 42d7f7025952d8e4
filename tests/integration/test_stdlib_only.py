"""A simulation needs nothing outside the standard library.

``pyproject.toml`` declares no runtime dependencies; this keeps that
true.  A fresh interpreter imports :mod:`repro.api` and runs one small
simulation, and every top-level module that appeared along the way
must be ``repro`` itself or part of the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")

_SCRIPT = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
from repro.api import simulate
from helpers import small_config, small_workload
simulate(config=small_config(), workload=small_workload())
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)
def test_simulate_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, _TESTS]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    imported = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "repro" in imported
    third_party = [
        name
        for name in imported
        if name not in ("repro", "helpers")
        and name not in sys.stdlib_module_names
    ]
    assert third_party == []
