"""Exact output checks for one benchmark run, made after the timed passes.

Every request of every pass gets a verdict:

- requests whose output does not depend on the seed (all of
  ``solve-sparse``, ``verify-paper``, ``hypotheses`` and the six-map
  solution spaces) must reproduce the sha256 digest stored in
  ``reference.json``;
- seeded certificates and decompositions are re-verified with plain
  ``Fraction`` arithmetic on the structure constants, independently of
  the package's evaluators;
- each rebased solve must equal the catalog space conjugated by the
  seeded basis change, compared as canonical reduced-echelon bases, and
  a seeded random member must pass ``is_identity_member``;
- a request must print the same bytes in every pass of the run.

    python3 benchmarks/check.py --work DIR --reference FILE PASS.json [PASS.json ...]
    python3 benchmarks/check.py --work DIR --record FILE PASS.json

Prints one JSON object: the failures, and the environment of the run.
``--record`` writes the digests of a pass as the new reference instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from workloads import conjugate_flat, random_combination

F = Fraction


class Table:
    """Multiplication by structure constants, on plain Fraction vectors."""

    def __init__(self, table) -> None:
        self.n = len(table)
        self.sparse = [
            [[(k, F(x)) for k, x in enumerate(table[i][j]) if x != 0] for j in range(self.n)]
            for i in range(self.n)
        ]

    def unit(self, i: int) -> list:
        v = [F(0)] * self.n
        v[i] = F(1)
        return v

    def mul(self, x, y) -> list:
        out = [F(0)] * self.n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in self.sparse[i][j]:
                            out[k] += xi * yj * c
        return out

    def bracket(self, x, y) -> list:
        return [a - b for a, b in zip(self.mul(x, y), self.mul(y, x))]

    def jordan(self, x, y) -> list:
        return [a + b for a, b in zip(self.mul(x, y), self.mul(y, x))]

    def is_central(self, z) -> bool:
        return all(not any(self.bracket(z, self.unit(j))) for j in range(self.n))

    def double_commutators(self):
        e = [self.unit(i) for i in range(self.n)]
        for i in range(self.n):
            for j in range(self.n):
                ij = self.bracket(e[i], e[j])
                if any(ij):
                    for k in range(self.n):
                        yield self.bracket(ij, e[k])


class Op:
    """A linear operator by its columns (images of the basis vectors)."""

    def __init__(self, cols) -> None:
        self.cols = [[F(x) for x in c] for c in cols]

    @classmethod
    def from_flat(cls, flat, n: int) -> "Op":
        return cls([flat[j * n : (j + 1) * n] for j in range(n)])

    def __call__(self, x) -> list:
        out = [F(0)] * len(self.cols)
        for xj, col in zip(x, self.cols):
            if xj:
                out = [a + xj * b for a, b in zip(out, col)]
        return out


def rref(rows) -> list:
    """Reduced row echelon form with zero rows dropped."""
    rows = [[F(x) for x in r] for r in rows]
    out, r0 = rows, 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((r for r in range(r0, len(out)) if out[r][c] != 0), None)
        if p is None:
            continue
        out[r0], out[p] = out[p], out[r0]
        inv = 1 / out[r0][c]
        out[r0] = [x * inv for x in out[r0]]
        for r in range(len(out)):
            if r != r0 and out[r][c] != 0:
                f = out[r][c]
                out[r] = [x - f * y for x, y in zip(out[r], out[r0])]
        r0 += 1
    return out[:r0]


def _rats(v) -> list:
    return [F(x) for x in v]


# ---------------------------------------------------------------------------
#  Per-request checks; each returns None when the output is right, else why
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, expect: dict, reference: dict) -> None:
        self.expect, self.reference = expect, reference
        self._entries: dict = {}

    def entry(self, spec: str):
        from lietriple.catalog import resolve

        if spec not in self._entries:
            self._entries[spec] = resolve(spec)
        return self._entries[spec]

    def table(self, spec: str) -> Table:
        return Table(self.entry(spec).algebra.table)

    def __call__(self, req: dict, rec: dict) -> str | None:
        if rec.get("error"):
            return rec["error"]
        if rec["exit"] != 0:
            return f"exit code {rec['exit']}: {rec.get('stderr', '').strip()}"
        return getattr(self, "check_" + req["check"])(req, rec["output"])

    def check_digest(self, req: dict, text: str) -> str | None:
        want = self.reference.get(req["id"])
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if want is None:
            return "no reference digest"
        return None if got == want else f"digest {got[:12]} != reference {want[:12]}"

    def _phi(self, spec: str, key: str) -> Op:
        return Op.from_flat(_rats(self.expect[spec][key]), self.entry(spec).algebra.dim)

    def check_proper(self, req: dict, text: str) -> str | None:
        spec = req["algebra"]
        res = json.loads(text)["results"]
        if res.get("verdict") != "proper":
            return f"verdict {res.get('verdict')!r}"
        if not all(ok for _, ok in res["transcript"]):
            return "transcript has a failed step"
        t = self.table(spec)
        return self._splitting(t, self._phi(spec, "phi"), _rats(res["lambda"]), Op(res["chi"]))

    def _splitting(self, t: Table, phi: Op, lam, chi: Op) -> str | None:
        """phi = lam*X + chi with lam central and chi central-valued, killing [[A,A],A]."""
        if not t.is_central(lam):
            return "lambda is not central"
        if not all(t.is_central(c) for c in chi.cols):
            return "chi leaves the center"
        if any(any(chi(w)) for w in t.double_commutators()):
            return "chi does not kill the double commutators"
        for j in range(t.n):
            e = t.unit(j)
            if phi(e) != [a + b for a, b in zip(t.mul(lam, e), chi(e))]:
                return f"phi != lambda*X + chi at basis vector {j}"
        return None

    def check_block(self, req: dict, text: str) -> str | None:
        spec = req["algebra"]
        res = json.loads(text)["results"]
        if res["block_form_conditions"] is not True:
            return "block form conditions fail"
        u = self.entry(spec).gma
        n = u.algebra.dim
        grid = [[None] * n for _ in range(n)]
        names = {"alpha": "A", "beta": "B", "tau": "M", "gamma": "N"}
        for name, rows in res["corners"].items():
            source, target = names[name.rstrip("1234")], "AMNB"[int(name[-1]) - 1]
            for a, r in enumerate(u.block_range(target)):
                for b, c in enumerate(u.block_range(source)):
                    grid[r][c] = F(rows[a][b])
        phi = self._phi(spec, "phi")
        if any(grid[r][c] != phi.cols[c][r] for r in range(n) for c in range(n)):
            return "corners do not reassemble to the operator"
        return None

    def check_gltd(self, req: dict, text: str) -> str | None:
        spec = req["algebra"]
        res = json.loads(text)["results"]
        if not all(ok for _, ok in res["transcript"]):
            return "transcript has a failed step"
        t = self.table(spec)
        phi, xi = self._phi(spec, "phi"), self._phi(spec, "xi")
        delta, sing, psi = Op(res["delta"]), Op(res["singular"]), Op(res["psi"])
        lam = _rats(res["lambda"])
        e = [t.unit(i) for i in range(t.n)]
        for i in range(t.n):
            for j in range(t.n):
                xy = t.mul(e[i], e[j])
                if delta(xy) != [a + b for a, b in zip(t.mul(delta(e[i]), e[j]), t.mul(e[i], delta(e[j])))]:
                    return f"delta is not a derivation at {(i, j)}"
                x_y = t.jordan(e[i], e[j])
                if sing(x_y) != [a + b for a, b in zip(t.jordan(sing(e[i]), e[j]), t.jordan(e[i], sing(e[j])))]:
                    return f"singular part is not a Jordan derivation at {(i, j)}"
        # Lambda = phi + xi; what delta and the singular part leave must
        # split as lambda*X + psi
        rest = Op([
            [p + x - d - s for p, x, d, s in zip(pc, xc, dc, sc)]
            for pc, xc, dc, sc in zip(phi.cols, xi.cols, delta.cols, sing.cols)
        ])
        return self._splitting(t, rest, lam, psi)

    def check_dense(self, req: dict, text: str) -> str | None:
        from lietriple.centralizers import IdentityKind, is_identity_member, solve_identity_space
        from lietriple.algebra import LinearOperator
        from lietriple.io import load_json, sc_from_doc

        spec, kind = req["algebra"], IdentityKind(req["kind"])
        got = [_rats(v) for v in json.loads(text)]
        ex = self.expect[req["id"]]
        p, pinv = [_rats(r) for r in ex["p"]], [_rats(r) for r in ex["pinv"]]
        alg = self.entry(spec).algebra
        catalog = solve_identity_space(alg, kind).basis
        want = rref([conjugate_flat(v, alg.dim, p, pinv) for v in catalog])
        if got != want:
            return f"basis differs from the conjugated catalog space (dim {len(got)} vs {len(want)})"
        if got:
            rebased = sc_from_doc(load_json(req["doc"]))
            rng = random.Random(ex["member_seed"])
            member = LinearOperator.from_flat(rebased, random_combination(rng, got))
            if not is_identity_member(rebased, kind, member):
                return "a random member of the solved space fails the identity"
        return None

    def check_sixmap(self, req: dict, text: str) -> str | None:
        spec = req["algebra"]
        doc = json.loads(text)
        space = json.dumps(doc["space"]) + "\n"
        want = self.reference.get(req["id"])
        if hashlib.sha256(space.encode("utf-8")).hexdigest() != want:
            return "six-map space digest differs from the reference"
        if not (doc["round_trip"] and doc["thm31"]):
            return "block round trip or structure conditions fail"
        t = self.table(spec)
        phi = Op.from_flat(_rats(doc["operator"]), t.n)
        e = [t.unit(i) for i in range(t.n)]
        for i in range(t.n):
            for j in range(t.n):
                ij = t.bracket(e[i], e[j])
                for k in range(t.n):
                    if phi(t.bracket(ij, e[k])) != t.bracket(t.bracket(phi(e[i]), e[j]), e[k]):
                        return f"assembled operator fails the triple identity at {(i, j, k)}"
        return None


def reference_digest(req: dict, rec: dict) -> str | None:
    """The seed-independent digest of a request, or None when it has none."""
    if req["check"] == "digest":
        return rec["sha256"]
    if req["check"] == "sixmap":
        space = json.dumps(json.loads(rec["output"])["space"]) + "\n"
        return hashlib.sha256(space.encode("utf-8")).hexdigest()
    return None


def environment(root: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--reference")
    ap.add_argument("--record")
    ap.add_argument("passes", nargs="+")
    args = ap.parse_args()
    work = Path(args.work)
    plan = json.loads((work / "plan.json").read_text())
    expect = json.loads((work / "expect.json").read_text())
    results = [json.loads(Path(p).read_text()) for p in args.passes]

    if args.record:
        by_id = {r["id"]: r for r in results[0]["requests"]}
        ref = json.loads(Path(args.record).read_text()) if Path(args.record).exists() else {}
        for req in plan["requests"]:
            digest = reference_digest(req, by_id[req["id"]])
            if digest is not None:
                ref[req["id"]] = digest
        Path(args.record).write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")
        return 0

    reference = json.loads(Path(args.reference).read_text())
    checker = Checker(expect, reference)
    verdicts: dict[tuple[str, str], str | None] = {}
    first: dict[str, str] = {}
    failures = []
    for p, res in enumerate(results):
        by_id = {r["id"]: r for r in res["requests"]}
        for req in plan["requests"]:
            rec = by_id.get(req["id"])
            if rec is None:
                why = "missing from the pass"
            elif rec.get("error"):
                why = rec["error"]
            else:
                key = (req["id"], rec["sha256"])
                if key not in verdicts:
                    verdicts[key] = checker(req, rec)
                why = verdicts[key]
                if why is None and first.setdefault(req["id"], rec["sha256"]) != rec["sha256"]:
                    why = "output bytes differ between passes"
            if why is not None:
                failures.append({"pass": p, "id": req["id"], "why": why})
    root = Path(__file__).resolve().parent.parent
    print(json.dumps({"failures": failures, "environment": environment(root)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
