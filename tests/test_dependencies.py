"""Guard against third-party imports creeping back into the package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro
import repro.experiments.__main__
from repro.api import CompileJob, MachineSpec, execute_job
execute_job(CompileJob.for_benchmark("RD53", MachineSpec.nisq_grid(5, 5)))
assert 'networkx' not in sys.modules, 'networkx was imported'
"""


def test_import_and_compile_do_not_load_networkx():
    completed = subprocess.run([sys.executable, "-c", PROBE], cwd=SRC,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
