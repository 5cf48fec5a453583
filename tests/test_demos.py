"""Every demo script runs to completion against the package in this checkout, warning-free, printing the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lietriple

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(lietriple.__file__).resolve().parents[1])

# sha256 of each demo's stdout, recorded before the catalog algebras were
# built from their matrix units; demo 02 prints a Peirce split of M3
STDOUT_SHA256 = {
    "01_exact_subspaces.py": "35862bbd42f551d755d5a67c8d263595fede82ec43b835d30137ade792a362fd",
    "02_building_block_algebras.py": "d25e2e1508eaf5206dc4dacac007c8b774e744576e929da7510c31e589c83163",
    "03_the_motivating_example.py": "b4d92a060c50cee674f2733d1c10f11ab6a602a8af1f10326aa95d6790c090c8",
    "04_block_form_of_centralizers.py": "cfb07c2828b6c48aa93586a05e16e9224480489e72f32458d11009083ec0d3e2",
    "05_properness_and_decompositions.py": "80bd72ae1b972bb66c59e40279ee2548e14c36d41094cbe966ebfb519d28f3af",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = subprocess.run(
        # development mode with every warning an error: a warning on a library path fails the demo
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
