"""Self-tests of the benchmark.  Slow (two to three minutes): they make real runs.

    python3 -m pytest -q benchmarks/tests

Each run happens in a scratch copy of ``src/`` and ``benchmarks/``, so
the tests leave nothing behind in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import EXERCISED_ON, SPAN_NAMES  # noqa: E402

RUN_TIMEOUT_S = 300


def _checkout(tmp: Path, with_src: bool = True) -> Path:
    shutil.copytree(BENCH, tmp / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp


def _run(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def test_refuses_to_run_without_the_package_source(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "solve-sparse", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    ref_path = root / "benchmarks" / "reference.json"
    ref = json.loads(ref_path.read_text())
    victim = "solve upper_triangular(3) ltc"
    ref[victim] = "0" * 64
    ref_path.write_text(json.dumps(ref))
    proc = _run(root, "solve-sparse", 0)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert victim in proc.stderr


def test_tracer_wraps_every_binding():
    code = (
        "import lietriple.cli, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "print('\\n'.join(t.bindings()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"},
    )
    bound = set(proc.stdout.split())
    for module in ("linalg", "centralizers", "derivations"):
        assert f"lietriple.{module}.kernel_of_rows" in bound
    for module in ("centralizers", "cli", "properness", "derivations"):
        assert f"lietriple.{module}.solve_identity_space" in bound
    assert "lietriple.linalg.Matrix.matvec" in bound
    assert "lietriple.linalg.Subspace.__init__" in bound


@pytest.mark.parametrize("workload", ["solve-sparse", "solve-dense", "certify"])
def test_traced_run_accounts_for_its_pass(tmp_path, workload):
    root = _checkout(tmp_path)
    proc = _run(root, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # traced and untraced passes printed the same bytes, and both were right
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    missing = [n for n in SPAN_NAMES if workload in EXERCISED_ON[n] and m[f"{n}.calls"] == 0]
    assert not missing
    self_total = sum(m[f"{n}.self_s"] for n in SPAN_NAMES)
    assert abs(self_total + m["trace.unattributed_s"] - m["trace.pass_s"]) < 1e-6
    assert m["trace.unattributed_s"] >= 0
