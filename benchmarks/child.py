"""One workload pass in a fresh interpreter.

The parent passes the monotonic clock reading taken just before it
spawned this process; set-up wall time runs from there until
``import lietriple.cli`` returns.  The pass then issues the plan's
requests one at a time and times each.  Output digests, serialisation and
the result file are all written after the timed pass ends.

``setup_s`` and ``pass_s`` are in reference-speed seconds: wall time
scaled by the speed of a fixed loop timed next to it (``SpeedProbe``).
``setup_wall_s``, ``pass_wall_s`` and the request latencies are raw.

    python3 benchmarks/child.py --src SRC --spawned-at T --out RESULT [--plan PLAN] [--trace]

Without ``--plan`` the child only measures set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path


# A fixed pure-Python Fraction loop, outside the package, timed before,
# once a second during, and after each request.  The VM this was built on
# switches between two speeds about 1.9x apart every 5-10 s; scaling each
# latency by the loop's speed around it removes most of that drift (see
# README, "Timing noise and reference-speed seconds").
REFERENCE_TERMS = 3000
# Time of one reference loop at the fast speed of the 2-core Xeon VM the
# baseline was measured on; speed-scaled times are in these units.
REFERENCE_NOMINAL_S = 0.0085
PROBE_INTERVAL_S = 1.0


def reference_loop_s() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference-loop timings around one request, and the time they took.

    Between ``arm`` and ``disarm``, with ``inside`` set, a SIGALRM handler
    times the loop once every PROBE_INTERVAL_S; ``spent`` is what that
    cost, to be taken off the request's latency.  Traced passes probe only
    before and after each request, so no probe time lands inside a span.
    """

    def __init__(self, inside: bool) -> None:
        self.inside = inside
        self.samples: list[float] = []
        self.spent = 0.0
        if inside:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_loop_s())
        self.spent += time.perf_counter() - t0

    def arm(self) -> None:
        self.spent = 0.0
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def disarm(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _runner(req: dict):
    """A zero-argument callable for one request; its value is the raw result."""
    from lietriple.catalog import resolve
    from lietriple.centralizers import (
        IdentityKind,
        block_decompose,
        build_from_blocks,
        six_map_solution_space,
        six_maps_from_flat,
        solve_identity_space,
        verify_thm31_conditions,
    )
    from lietriple.cli import main
    from lietriple.io import load_json, sc_from_doc

    if req["type"] == "cli":
        argv = req["argv"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

        return run
    if req["type"] == "dense":
        path, kind = req["doc"], IdentityKind(req["kind"])

        def run():
            return solve_identity_space(sc_from_doc(load_json(path)), kind)

        return run
    if req["type"] == "sixmap":
        spec, coeff_path = req["algebra"], req["coeffs"]

        def run():
            u = resolve(spec).gma
            space = six_map_solution_space(u)
            coeffs = load_json(coeff_path)["coefficients"]
            flat = [0] * space.ambient
            for c, v in zip(coeffs, space.basis):
                flat = [a + c * b for a, b in zip(flat, v)]
            maps = six_maps_from_flat(u, flat)
            op = build_from_blocks(u, **maps)
            d = block_decompose(u, op)
            round_trip = all(getattr(d, k) == m for k, m in maps.items())
            return space, op, round_trip, verify_thm31_conditions(u, d).passed

        return run
    raise ValueError(f"unknown request type {req['type']!r}")


def _serialise(req: dict, value) -> dict:
    """Canonical text of a request's result and its sha256."""
    if req["type"] == "cli":
        text = value["stdout"]
        rec = {"exit": value["exit"], "stderr": value["stderr"]}
    elif req["type"] == "dense":
        text = json.dumps([[str(x) for x in v] for v in value.basis]) + "\n"
        rec = {"exit": 0}
    else:
        space, op, round_trip, passed = value
        text = json.dumps(
            {
                "space": [[str(x) for x in v] for v in space.basis],
                "operator": [str(x) for x in op.flatten()],
                "round_trip": round_trip,
                "thm31": passed,
            },
            sort_keys=True,
        ) + "\n"
        rec = {"exit": 0}
    rec["output"] = text
    rec["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--plan")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import lietriple.cli  # noqa: F401  -- the set-up being measured

    setup_wall_s = time.monotonic() - args.spawned_at
    reference = (reference_loop_s() + reference_loop_s()) / 2
    import lietriple

    src = Path(args.src).resolve()
    if src not in Path(lietriple.__file__).resolve().parents:
        sys.stderr.write(f"lietriple was imported from {lietriple.__file__}, not {src}\n")
        return 2
    result: dict = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * REFERENCE_NOMINAL_S / reference}
    if args.plan is None:
        result["peak_rss_mib"] = _peak_rss_mib()
        Path(args.out).write_text(json.dumps(result))
        return 0

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)["requests"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # built after install, so the runners hold the traced bindings
    runners = [_runner(r) for r in plan]

    values, latencies, references, errors = [], [], [], []
    clock = time.perf_counter
    probe = SpeedProbe(inside=tracer is None)
    for i, run in enumerate(runners):
        if tracer is not None:
            tracer.request = i
        probe.samples = [reference_loop_s()]
        t0 = clock()
        probe.arm()
        try:
            value, error = run(), None
        except Exception as exc:  # a failed request is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        probe.disarm()
        latencies.append(clock() - t0 - probe.spent)
        probe.samples.append(reference_loop_s())
        references.append(sum(probe.samples) / len(probe.samples))
        values.append(value)
        errors.append(error)
    # the pass is its requests back to back, without the probe's loops
    pass_wall_s = sum(latencies)
    pass_s = sum(lat * REFERENCE_NOMINAL_S / ref for lat, ref in zip(latencies, references))

    records = []
    for req, value, error, lat, ref in zip(plan, values, errors, latencies, references):
        rec = {"id": req["id"], "error": error} if error else _serialise(req, value)
        rec.update(id=req["id"], latency_s=lat, reference_s=ref)
        records.append(rec)
    result.update(pass_s=pass_s, pass_wall_s=pass_wall_s, requests=records, peak_rss_mib=_peak_rss_mib())
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(str(Path(args.out).with_suffix(".spans.json")))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
