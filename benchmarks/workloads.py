"""Workload definitions and seeded input generation.

Run as a script, this module is the input generator: a process of its own
that writes every document the pass children read, plus the data the
output checks need, into a work directory.  The children see only those
documents and the request plan.

    python3 benchmarks/workloads.py --workload solve-dense --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

KINDS = ("lc", "ltc", "jc", "der", "lieder", "jder", "ltd", "sjder")

# Catalog matrix-unit algebras: 0/1, mostly-zero structure constants, so
# row generation (term tables, double_ad products) dominates the solve.
SPARSE_ALGEBRAS = ("upper_triangular(3)", "upper_triangular(4)", "full_matrix(3)", "example_1_2")
SPARSE_EXTRA = (("full_matrix(4)", "ltc"), ("full_matrix(4)", "ltd"))

# upper_triangular(3) rewritten in a seeded rational basis, with a basis
# change of its own for each request: rows turn dense and their
# coefficients grow, so the exact kernel dominates.  Many cheap requests
# (0.1-1 s) average over many draws, so the pass time does not follow the
# seed.  full_matrix(3) and example_1_2 are left out: one rebased solve
# there takes 1-10 s depending on the draw, and a pass of them overran the
# run budget while its time followed the seed.
DENSE_ALGEBRA = "upper_triangular(3)"
DENSE_KINDS = ("lc", "ltc", "jc", "der", "lieder", "jder", "ltd")
DENSE_COPIES = 4
# Share of off-diagonal entries set in each row of the unit-diagonal basis
# change, and the values they take.
BASIS_DENSITY = 0.4
BASIS_ENTRIES = (-2, -1, 1, 2)

# Certificates, block forms and decompositions on unital block algebras.
CERTIFY_ALGEBRAS = ("upper_triangular(3)", "full_matrix(3)", "upper_triangular(4)")
SIX_MAP_ALGEBRAS = ("upper_triangular(3)", "upper_triangular(4)")
COMBINATION_ENTRIES = (-3, -2, -1, 1, 2, 3)
# Coefficients handed to each six-map round trip; the child uses the first
# dim(space) of them.
SIX_MAP_COEFFS = 64


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def _safe(spec: str) -> str:
    return spec.replace("(", "").replace(")", "")


# ---------------------------------------------------------------------------
#  Exact helpers on plain Fraction grids (independent of the package)
# ---------------------------------------------------------------------------


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def mat_inverse(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse, or None when singular."""
    n = len(m)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def flat_to_mat(flat, n: int) -> list[list[Fraction]]:
    """Column-major operator coordinates to a row-major grid."""
    return [[Fraction(flat[c * n + r]) for c in range(n)] for r in range(n)]


def mat_to_flat(m: list[list[Fraction]]) -> list[Fraction]:
    n = len(m)
    return [m[r][c] for c in range(n) for r in range(n)]


def random_basis_change(rng: random.Random, n: int) -> tuple[list, list]:
    """A unit-diagonal matrix with sparse small-integer entries and its inverse.

    Every row gets the same number of off-diagonal entries, so the cost of
    a rebased solve varies less from one seed to the next.
    """
    per_row = max(1, round(BASIS_DENSITY * (n - 1)))
    while True:
        p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in rng.sample([j for j in range(n) if j != i], per_row):
                p[i][j] = Fraction(rng.choice(BASIS_ENTRIES))
        inv = mat_inverse(p)
        if inv is not None:
            return p, inv


def rebase_table(table, p, pinv) -> list:
    """Structure constants in the basis f_i = sum_a p[a][i] e_a."""
    n = len(table)
    # e-coordinates of f_i * f_j, then f-coordinates via pinv
    out = [[None] * n for _ in range(n)]
    pcols = [[p[a][i] for a in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            prod = [Fraction(0)] * n
            for a, pa in enumerate(pcols[i]):
                if pa == 0:
                    continue
                for b, pb in enumerate(pcols[j]):
                    if pb == 0:
                        continue
                    for c, x in enumerate(table[a][b]):
                        if x != 0:
                            prod[c] += pa * pb * x
            out[i][j] = [sum((pinv[k][c] * prod[c] for c in range(n)), Fraction(0)) for k in range(n)]
    return out


def conjugate_flat(flat, n: int, p, pinv) -> list[Fraction]:
    """Operator coordinates in the old basis -> coordinates in the new one."""
    return mat_to_flat(mat_mul(mat_mul(pinv, flat_to_mat(flat, n)), p))


def random_combination(rng: random.Random, basis) -> list[Fraction]:
    if not basis:
        raise ValueError("cannot combine an empty basis")
    out = [Fraction(0)] * len(basis[0])
    for v in basis:
        c = rng.choice(COMBINATION_ENTRIES)
        out = [a + c * Fraction(b) for a, b in zip(out, v)]
    return out


# ---------------------------------------------------------------------------
#  Plans
# ---------------------------------------------------------------------------


def _cli(rid: str, argv: list[str], check: str = "digest", algebra: str | None = None) -> dict:
    """A CLI request; ``check`` names the Checker method that verifies it."""
    return {"id": rid, "type": "cli", "argv": argv, "check": check, "algebra": algebra}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return str(path)


def plan_solve_sparse(rng: random.Random, out: Path) -> tuple[list, dict]:
    reqs = [
        _cli(f"solve {a} {k}", ["solve", a, "--identity", k, "--format", "json"])
        for a in SPARSE_ALGEBRAS
        for k in KINDS
    ]
    reqs += [
        _cli(f"solve {a} {k}", ["solve", a, "--identity", k, "--format", "json"])
        for a, k in SPARSE_EXTRA
    ]
    return reqs, {}


def plan_solve_dense(rng: random.Random, out: Path) -> tuple[list, dict]:
    from lietriple.catalog import resolve

    reqs, expect = [], {}
    alg = resolve(DENSE_ALGEBRA).algebra
    for copy in range(DENSE_COPIES):
        for k in DENSE_KINDS:
            rid = f"dense {DENSE_ALGEBRA} {k} {copy}"
            p, pinv = random_basis_change(rng, alg.dim)
            table = [[[rat_str(x) for x in row] for row in plane] for plane in rebase_table(alg.table, p, pinv)]
            doc = {"dim": alg.dim, "labels": list(alg.labels), "table": table}
            path = _write(out / f"dense-{k}-{copy}.json", doc)
            expect[rid] = {
                "p": [[rat_str(x) for x in row] for row in p],
                "pinv": [[rat_str(x) for x in row] for row in pinv],
                "member_seed": rng.randrange(2**32),
            }
            reqs.append(
                {"id": rid, "type": "dense", "check": "dense", "doc": path, "kind": k, "algebra": DENSE_ALGEBRA}
            )
    return reqs, expect


def _operator_doc(alg, flat) -> dict:
    n = alg.dim
    return {
        "algebra_hash": alg.content_hash,
        "matrix": [[rat_str(flat[j * n + r]) for r in range(n)] for j in range(n)],
    }


def plan_certify(rng: random.Random, out: Path) -> tuple[list, dict]:
    from lietriple.catalog import resolve
    from lietriple.centralizers import IdentityKind, solve_identity_space

    reqs = [_cli("verify-paper", ["verify-paper", "--format", "json"])]
    expect = {}
    for spec in CERTIFY_ALGEBRAS:
        alg = resolve(spec).algebra
        ltc = solve_identity_space(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER).basis
        ltd = solve_identity_space(alg, IdentityKind.LIE_TRIPLE_DERIVATION).basis
        phi = random_combination(rng, ltc)
        xi = random_combination(rng, ltd)
        lam = [a + b for a, b in zip(phi, xi)]
        tag = _safe(spec)
        op_path = _write(out / f"op-{tag}.json", _operator_doc(alg, phi))
        lam_path = _write(out / f"gltd-{tag}.json", _operator_doc(alg, lam))
        xi_path = _write(out / f"xi-{tag}.json", _operator_doc(alg, xi))
        reqs += [
            _cli(f"proper {spec}", ["proper", spec, op_path, "--format", "json"], "proper", spec),
            _cli(f"decompose {spec}", ["decompose", spec, op_path, "--format", "json"], "block", spec),
            _cli(f"hypotheses {spec}", ["hypotheses", spec, "--format", "json"]),
            _cli(
                f"decompose-xi {spec}",
                ["decompose", spec, lam_path, "--xi", xi_path, "--format", "json"],
                "gltd",
                spec,
            ),
        ]
        expect[spec] = {"phi": [rat_str(x) for x in phi], "xi": [rat_str(x) for x in xi]}
    for spec in SIX_MAP_ALGEBRAS:
        coeffs = [rng.choice(COMBINATION_ENTRIES) for _ in range(SIX_MAP_COEFFS)]
        path = _write(out / f"sixmap-{_safe(spec)}.json", {"coefficients": coeffs})
        reqs.append(
            {"id": f"six-map {spec}", "type": "sixmap", "check": "sixmap", "algebra": spec, "coeffs": path}
        )
    return reqs, expect


PLANNERS = {
    "solve-sparse": plan_solve_sparse,
    "solve-dense": plan_solve_dense,
    "certify": plan_certify,
}
WORKLOADS = tuple(PLANNERS)


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    # one stream per workload, so adding a workload never shifts another's inputs
    rng = random.Random(f"{workload}:{seed}")
    reqs, expect = PLANNERS[workload](rng, out)
    _write(out / "plan.json", {"workload": workload, "seed": seed, "requests": reqs})
    _write(out / "expect.json", expect)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
