"""Command line interface.

Commands: solve, proper, decompose, hypotheses, verify-paper.
Exit codes: 0 success, 1 a mathematical check failed, 2 invalid input
(a malformed document, one whose shapes do not fit together, or an
algebra without the unit or the block structure a command needs), with
one ``invalid input:`` line on stderr and nothing on stdout.
Reports are deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .algebra import LinearOperator, center, double_commutator_span
from .catalog import CatalogEntry, resolve, standard_gmas
from .centralizers import (
    CORNERS,
    IdentityKind,
    block_decompose,
    is_identity_member,
    solve_identity_space,
    verify_thm31_conditions,
)
from .derivations import check_thm41_hypotheses, decompose_generalized_ltd, GLTDDecomposition
from .errors import (
    AnnihilatorConditionsFail,
    DimensionMismatch,
    HashMismatch,
    LieTripleError,
    NotAssociative,
    NotGMA,
    NotUnital,
)
from .gma import block_center, block_hypotheses_hold, eta_map
from .io import dump_json, load_json, operator_from_doc, parse_grid, vector_doc
from .properness import (
    Infeasible,
    PropernessCertificate,
    PropernessFailure,
    check_cor36_hypotheses,
    equivalence_audit,
    is_proper_direct,
    is_proper_thm33,
)

_KIND_FLAGS = {k.value: k for k in IdentityKind}


def _document_hash(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load_operator(path: str, entry: CatalogEntry) -> tuple[LinearOperator, str]:
    doc = load_json(path)
    return operator_from_doc(doc, entry.algebra), _document_hash(doc)


def _emit(fmt: str, command: list, inputs: dict, results: dict, text_lines: list[str], status: str = "ok") -> None:
    """Write the report {command, inputs, results, status} as JSON, or the text lines."""
    if fmt == "json":
        report = {"command": command, "inputs": inputs, "results": results, "status": status}
        sys.stdout.write(dump_json(report))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    entry = resolve(args.algebra)
    kind = _KIND_FLAGS[args.identity]
    target = entry.gma if kind is IdentityKind.SINGULAR_JORDAN_DERIVATION else entry.algebra
    if target is None:
        raise NotGMA("this identity kind needs a block algebra")
    space = solve_identity_space(target, kind)
    results = {"dimension": space.dim, "ambient": space.ambient, "basis": space.basis}
    lines = [] if args.format == "json" else [f"dim {space.dim}"] + [", ".join(vector_doc(v)) for v in space.basis]
    command = ["solve", args.algebra, "--identity", args.identity]
    _emit(args.format, command, {"algebra_hash": entry.algebra.content_hash}, results, lines)
    return 0


def _columns_doc(op: LinearOperator) -> list:
    """An operator's columns, phi(e_j) for each j, as rational vectors."""
    return [op.column(j) for j in range(op.algebra.dim)]


def _certificate_result(res) -> tuple[dict, list[str]]:
    if isinstance(res, PropernessCertificate):
        doc = {
            "verdict": "proper",
            "lambda": res.lam.coords,
            "chi": _columns_doc(res.chi),
            "transcript": [[name, ok] for name, ok in res.transcript],
        }
        lam_zero = all(x == 0 for x in res.lam.coords)
        lines = [
            "PROPER lambda=" + ("0" if lam_zero else str(res.lam))
            + " chi=" + ("0" if res.chi.is_zero() else "(center-valued map)")
        ]
        return doc, lines
    if isinstance(res, PropernessFailure):
        doc = {
            "verdict": "not proper",
            "failure_side": res.side,
            "witness_corner_value": res.witness,
            "target_dimension": res.target.dim,
        }
        return doc, [f"NOT PROPER (corner witness on side {res.side})"]
    assert isinstance(res, Infeasible)
    doc = {"verdict": "not proper", "reason": res.reason}
    lines = ["NOT PROPER"]
    if res.witness_element is not None:
        doc["witness_element"] = res.witness_element.coords
        doc["witness_image"] = res.witness_image.coords
        lines.append(f"witness: image of {res.witness_element} escapes the center")
    return doc, lines


def _cmd_proper(args: argparse.Namespace) -> int:
    entry = resolve(args.algebra)
    op, op_hash = _load_operator(args.operator, entry)
    if entry.gma is not None and block_hypotheses_hold(entry.gma):
        res = is_proper_thm33(entry.gma, op)
    else:
        probes = [entry.extras["a0"]] if "a0" in entry.extras else []
        res = is_proper_direct(entry.algebra, op, probes=probes)
    body, lines = _certificate_result(res)
    inputs = {"algebra_hash": entry.algebra.content_hash, "operator_hash": op_hash}
    _emit(args.format, ["proper", args.algebra, args.operator], inputs, body, lines)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    entry = resolve(args.algebra)
    if entry.gma is None:
        raise NotGMA("decompose needs a block algebra")
    op, op_hash = _load_operator(args.operator, entry)
    inputs = {"algebra_hash": entry.algebra.content_hash, "operator_hash": op_hash}
    if args.xi is None:
        d = block_decompose(entry.gma, op)
        mats = {name: getattr(d, name) for name in CORNERS}
        corners = {name: [mat.row(i) for i in range(mat.rows)] for name, mat in mats.items()}
        rep = verify_thm31_conditions(entry.gma, d)
        results = {"corners": corners, "block_form_conditions": rep.passed}
        lines = [f"block form conditions: {'pass' if rep.passed else 'fail'}"]
        for name in sorted(mats):
            lines.append(f"{name}: " + ("0" if mats[name].is_zero() else repr(mats[name])))
        _emit(args.format, ["decompose", args.algebra, args.operator], inputs, results, lines)
        return 0
    xi, xi_hash = _load_operator(args.xi, entry)
    inputs["xi_hash"] = xi_hash
    command = ["decompose", args.algebra, args.operator, "--xi", args.xi]
    res = decompose_generalized_ltd(entry.gma, op, xi)
    if isinstance(res, Infeasible):
        results = {"verdict": "infeasible", "reason": res.reason}
        _emit(args.format, command, inputs, results, [f"INFEASIBLE: {res.reason}"], "math-failure")
        return 1
    assert isinstance(res, GLTDDecomposition)
    results = {
        "delta": _columns_doc(res.delta),
        "singular": _columns_doc(res.singular),
        "psi": _columns_doc(res.psi),
        "lambda": res.lam.coords,
        "certified_hypotheses": res.certified_hypotheses,
        "transcript": [[name, ok] for name, ok in res.transcript],
    }
    lines = [
        "decomposed: Lambda = delta + singular + psi + lambda*X",
        f"lambda = {res.lam}",
        f"certified hypotheses: {res.certified_hypotheses}",
    ]
    _emit(args.format, command, inputs, results, lines)
    return 0


def _cmd_hypotheses(args: argparse.Namespace) -> int:
    entry = resolve(args.algebra)
    if entry.gma is None:
        raise NotGMA("hypotheses need a block algebra")
    command, candidates = ["hypotheses", args.algebra], None
    inputs = {"algebra_hash": entry.algebra.content_hash}
    if args.candidates_m0 is not None:
        doc = load_json(args.candidates_m0)
        candidates = parse_grid(doc)
        command += ["--candidates-m0", args.candidates_m0]
        inputs["candidates_m0_hash"] = _document_hash(doc)
    cor = check_cor36_hypotheses(entry.gma)
    thm = check_thm41_hypotheses(entry.gma, candidates_m0=candidates)
    c, d = ("not established" if by is None else vector_doc(by)
            for by in (thm.cond_c_established_by, thm.cond_d_established_by))
    results = {
        "properness_sufficiency": {
            "pi_b_equals_center_b": cor.pi_b_equals_center_b,
            "triple_span_a_full": cor.triple_span_a_full,
            "pi_a_equals_center_a": cor.pi_a_equals_center_a,
            "triple_span_b_full": cor.triple_span_b_full,
            "satisfied": cor.satisfied,
        },
        "decomposition_hypotheses": {
            "i": thm.cond_i,
            "ii": thm.cond_ii,
            "iii": thm.cond_iii,
            "iv": thm.cond_iv,
            "a": thm.cond_a,
            "b": thm.cond_b,
            "c": c,
            "d": d,
            "two_torsion_free": thm.two_torsion_free,
            "satisfied": thm.satisfied,
        },
    }
    lines = [
        f"properness sufficiency satisfied: {cor.satisfied}",
        f"  pi_B(Z)=Z(B): {cor.pi_b_equals_center_b}  [[A,A],A]=A: {cor.triple_span_a_full}",
        f"  pi_A(Z)=Z(A): {cor.pi_a_equals_center_a}  [[B,B],B]=B: {cor.triple_span_b_full}",
        f"decomposition hypotheses satisfied: {thm.satisfied}",
        f"  (i): {thm.cond_i}  (ii): {thm.cond_ii}  (iii): {thm.cond_iii}  (iv): {thm.cond_iv}",
        f"  (a): {thm.cond_a}  (b): {thm.cond_b}  (c): {c}  (d): {d}",
    ]
    _emit(args.format, command, inputs, results, lines)
    return 0


def reproduction_checks() -> list[dict]:
    """Every reproduction check, in fixed order; shared with the tests."""
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    entry = resolve("example_1_2")  # a named entry, assembled once per process
    alg = entry.algebra
    phi, a0, b0, expected_center = (entry.extras[k] for k in ("phi", "a0", "b0", "expected_center"))
    record(
        "example: all double commutators vanish",
        double_commutator_span(alg).is_zero(),
        f"{alg.dim**3} triples checked",
    )
    record(
        "example: swap map satisfies the triple-centralizer identity",
        bool(is_identity_member(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER, phi)),
    )
    lhs = phi((a0 * b0) - (b0 * a0))
    rhs = (phi(a0) * b0) - (b0 * phi(a0))
    record(
        "example: swap map fails the Lie-centralizer identity at the witnesses",
        lhs != rhs,
        "phi([A0,B0]) != [phi(A0),B0]",
    )
    record(
        "example: center is the corner grid of dimension 4",
        center(alg) == expected_center and expected_center.dim == 4,
    )
    res = is_proper_direct(alg, phi, probes=[a0])
    witness_ok = (
        isinstance(res, Infeasible)
        and res.witness_element is not None
        and res.witness_element.coords == a0.coords
        and not center(alg).contains_vector(res.witness_image.coords)
    )
    record("example: no proper splitting; the image of A0 escapes the center", witness_ok)

    for name, u in standard_gmas().items():
        record(
            f"center description [{name}]: raw kernel equals block constraints",
            block_center(u) == center(u.algebra),
        )
        try:
            eta_map(u)
            record(f"center correspondence [{name}]: eta verifies as an isomorphism", True)
        except LieTripleError as exc:  # pragma: no cover
            record(f"center correspondence [{name}]: eta verifies as an isomorphism", False, str(exc))
        space = solve_identity_space(u.algebra, IdentityKind.LIE_TRIPLE_CENTRALIZER)
        ok = all(
            verify_thm31_conditions(
                u, block_decompose(u, LinearOperator(u.algebra, v))
            ).passed
            for v in space.basis
        )
        record(f"block form [{name}]: every solved basis element passes the conditions", ok)
        audit = equivalence_audit(u)
        record(
            f"properness criteria [{name}]: direct, range and unit tests coincide",
            audit.all_consistent,
            f"{audit.ltc.dim} operators, {audit.improper_codimension} improper",
        )
        cor = check_cor36_hypotheses(u)
        proper_all = all(
            isinstance(
                is_proper_thm33(u, LinearOperator(u.algebra, v)),
                PropernessCertificate,
            )
            for v in space.basis
        )
        record(
            f"sufficiency [{name}]: hypotheses hold and every solution splits",
            cor.satisfied and proper_all,
        )
    return checks


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    checks = reproduction_checks()
    all_pass = all(c["passed"] for c in checks)
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}"
        + (f"  ({c['detail']})" if c["detail"] else "")
        for c in checks
    ]
    lines.append(f"{'all checks passed' if all_pass else 'SOME CHECKS FAILED'}")
    results = {"checks": checks, "all_passed": all_pass}
    _emit(args.format, ["verify-paper"], {}, results, lines, "ok" if all_pass else "math-failure")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietriple",
        description="Exact Lie triple centralizer and derivation solver",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", parents=[common], help="solution space of a functional identity")
    p.add_argument("algebra")
    p.add_argument("--identity", choices=sorted(_KIND_FLAGS), required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("proper", parents=[common], help="properness verdict for an operator")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(func=_cmd_proper)

    p = sub.add_parser("decompose", parents=[common], help="block or generalized decomposition")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.add_argument("--xi", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("hypotheses", parents=[common], help="sufficiency and decomposition hypotheses")
    p.add_argument("algebra")
    p.add_argument("--candidates-m0", default=None)
    p.set_defaults(func=_cmd_hypotheses)

    p = sub.add_parser("verify-paper", parents=[common], help="run the full reproduction suite")
    p.set_defaults(func=_cmd_verify_paper)
    return parser


# Built once: a parser ends in reference cycles, so one per call would
# leave garbage for the cyclic collector on every request.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (
        OSError, ValueError, KeyError, HashMismatch, DimensionMismatch, NotUnital, AnnihilatorConditionsFail, NotGMA,
        NotAssociative,
    ) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except LieTripleError as exc:
        sys.stderr.write(f"mathematical check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
