"""Fold the run records in .bench_results/ into one BENCH_<n>.json.

    python3 benchmarks/summarize.py --out benchmarks/BENCH_1.json

For each workload: every end-to-end metric's values over the untraced
runs, their median, quartiles and spread (quartile distance over median),
and the per-layer breakdown of the traced run, with each span's share of
the traced pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    runs = defaultdict(list)
    traced = {}
    env = None
    for path in sorted((ROOT / ".bench_results").glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        env = env or rec["environment"]
        if rec["trace"]:
            traced[rec["workload"]] = rec
        else:
            runs[rec["workload"]].append(rec)

    out = {"environment": env, "workloads": {}}
    for workload in sorted(set(runs) | set(traced)):
        recs = runs.get(workload, [])
        e2e = {}
        for name in (recs[0]["end_to_end"] if recs else {}):
            values = [r["end_to_end"][name]["value"] for r in recs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) >= 2 else [med, med, med]
            e2e[name] = {
                "unit": recs[0]["end_to_end"][name]["unit"],
                "median": med,
                "q1": q[0],
                "q3": q[2],
                "spread": (q[2] - q[0]) / med,
                "values": values,
            }
        entry = {
            "seeds": [r["seed"] for r in recs],
            "seconds": recs[0]["seconds"] if recs else None,
            "samples": recs[0]["samples"] if recs else None,
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "end_to_end": e2e,
        }
        if workload in traced:
            t = traced[workload]
            layers = {k: v["value"] for k, v in t["per_layer"].items()}
            total = layers["trace.pass_s"]
            shares = {
                k[: -len(".self_s")]: v / total
                for k, v in layers.items() if k.endswith(".self_s") and v
            }
            shares["trace.unattributed"] = layers["trace.unattributed_s"] / total
            entry["traced"] = {
                "seed": t["seed"],
                "untraced_pass_s": t["end_to_end"]["pass_s"]["value"],
                "per_layer": layers,
                "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            }
        out["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        print(workload)
        for name, m in entry["end_to_end"].items():
            print(f"  {name:16s} median {m['median']:.4g} {m['unit']}  spread {m['spread']:.3f}")
        for name, share in list(entry.get("traced", {}).get("self_share", {}).items())[:6]:
            print(f"  self share {name:44s} {share:.3f}")


if __name__ == "__main__":
    main()
