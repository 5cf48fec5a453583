"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload {solve-sparse,solve-dense,certify} \
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  Each pass is one fresh child
interpreter that issues the workload's requests one at a time, so every
pass starts with cold process-global caches, as every ``lietriple``
invocation does, while requests within a pass share the process as calls
in one library session do.  Nothing runs in parallel.

A run (1) generates the seeded inputs in a separate process, (2) spawns
set-up probes and timed passes one after another, (3) checks every output
exactly in another process, (4) prints each metric by name with its unit,
then one JSON line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  The full record, with the environment, goes to
``.bench_results/`` at the checkout root.  The exit code is non-zero when
any request failed or any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Nominal wall length of one untraced pass on a 2-core Xeon VM, rounded up;
# a run makes seconds // nominal passes (at least one), so the number of
# samples in a run, and with it the tail percentile, never depends on
# timing noise.
NOMINAL_PASS_S = {"solve-sparse": 18.0, "solve-dense": 10.0, "certify": 30.0}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# no further pass starts once this much of a run has gone
RUN_GUARD_S = 120

TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n, n


# The end-to-end metrics listed in BENCHMARK.json.  pass_s and setup_s are
# in reference-speed seconds (child.py): on the VM this was built on, raw
# wall times (pass_wall_s, setup_wall_s) spread by 0.2-0.4 over ten runs
# from speed drift outside the VM, and no bound could hold them.  The
# request percentiles are rank statistics over 15-34 requests of very
# different cost; on certify the median falls between request types that
# swap with the seed (spread 0.50), so they are recorded but not listed.
LISTED = ("pass_s", "setup_s", "peak_rss_mib")


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    lat = [r["latency_s"] for p in passes for r in p["requests"]]
    tail_s, pct, n = tail(lat)
    return {
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "pass_wall_s": (statistics.median(p["pass_wall_s"] for p in passes), "s"),
        "request_p50_s": (statistics.median(lat), "s"),
        "request_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in setups), "s"),
        "setup_wall_s": (statistics.median(c["setup_wall_s"] for c in setups), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
    }, {"tail_percentile": pct, "latency_samples": n, "passes": len(passes), "setups": len(setups)}


def per_layer(traced: dict, untraced: dict) -> dict:
    tr = traced["trace"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tr["calls"][name], "count")
        out[f"{name}.self_s"] = (tr["self_s"][name], "s")
    solves = tr["solve_calls"]
    out["centralizers.solve_identity_space.cache_hit_ratio"] = (
        tr["solve_cache_hits"] / solves if solves else 0.0, "ratio")
    out["linalg.kernel_of_rows.rows_in"] = (tr["kernel_rows_in"], "count")
    out["linalg.kernel_of_rows.rank_ratio"] = (
        tr["kernel_rank"] / tr["kernel_rows_in"] if tr["kernel_rows_in"] else 0.0, "ratio")
    out["io.dump_json.bytes_out"] = (tr["dump_bytes_out"], "B")
    # wall time, so that the self times and the unattributed rest sum to it
    out["trace.pass_s"] = (traced["pass_wall_s"], "s")
    # in reference-speed seconds, so speed drift between the passes cancels
    out["trace.overhead_s"] = (traced["pass_s"] - untraced["pass_s"], "s")
    out["trace.unattributed_s"] = (traced["pass_wall_s"] - sum(tr["self_s"].values()), "s")
    return out


class Run:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = ROOT / ".bench_work" / tag
        self.results = ROOT / ".bench_results"
        self.tag = tag
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.start = time.monotonic()

    def python(self, script: str, *args: str, capture: bool = False) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / script), *args],
            env=self.env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True,
        )

    def child(self, out: Path, plan: bool, trace: bool = False) -> dict:
        args = ["--src", str(SRC), "--out", str(out)]
        if plan:
            args += ["--plan", str(self.work / "plan.json")]
        if trace:
            args.append("--trace")
        # the stamp is taken last, so set-up starts at the spawn
        self.python("child.py", *args, "--spawned-at", repr(time.monotonic()))
        return json.loads(out.read_text())

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lietriple" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}; run from a full checkout\n")
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    run.results.mkdir(exist_ok=True)
    run.python("workloads.py", "--workload", args.workload, "--seed", str(args.seed), "--out", str(run.work))

    setups: list[dict] = []
    if not run.trace:
        for i in range(SETUP_PROBES):
            setups.append(run.child(run.work / f"setup-{i}.json", plan=False))

    n_passes = 1 if run.trace else max(1, args.seconds // int(NOMINAL_PASS_S[args.workload]))
    passes, files = [], []
    for i in range(n_passes):
        if i and run.elapsed() > RUN_GUARD_S:
            break
        f = run.work / f"pass-{i}.json"
        passes.append(run.child(f, plan=True))
        files.append(f)
        setups.append(passes[-1])
    traced = None
    if run.trace:
        f = run.work / "pass-traced.json"
        traced = run.child(f, plan=True, trace=True)
        files.append(f)
        shutil.move(str(f.with_suffix(".spans.json")), str(run.results / f"{run.tag}.spans.json"))

    checked = json.loads(run.python(
        "check.py", "--work", str(run.work), "--reference", str(HERE / "reference.json"),
        *map(str, files), capture=True,
    ).stdout)
    failures = checked["failures"]
    attempted = sum(len(p["requests"]) for p in passes) + (len(traced["requests"]) if traced else 0)

    e2e, samples = end_to_end(passes, setups)
    metrics = per_layer(traced, passes[0]) if run.trace else {k: e2e[k] for k in LISTED}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, one client, one fresh interpreter per pass",
        "environment": checked["environment"],
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "samples": samples,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if run.trace else None,
        "requests": [
            {"pass": i, "id": r["id"], "latency_s": r["latency_s"], "reference_s": r["reference_s"]}
            for i, p in enumerate(passes) for r in p["requests"]
        ],
        "run_s": run.elapsed(),
    }
    (run.results / f"{run.tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run.work, ignore_errors=True)

    for f in failures:
        sys.stderr.write(f"FAILED pass {f['pass']} {f['id']}: {f['why']}\n")
    for name, (value, unit) in (metrics if run.trace else e2e).items():
        print(f"{name:56s} {value!r:>24} {unit}")
    print(f"{'failed_ratio':56s} {len(failures) / attempted!r:>24} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
