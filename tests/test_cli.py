import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lietriple
from lietriple.algebra import LinearOperator
from lietriple.catalog import resolve, strict_upper_3x3, upper_triangular
from lietriple.centralizers import IdentityKind, solve_identity_space
from lietriple.cli import build_parser, main
from oracles import algebra_doc, left_mult, matrix, operator_doc, operator_of, right_mult, write_doc


# sha256 of the verify-paper stdout in each format
VERIFY_PAPER_DIGESTS = {
    "text": "b26cdec685a19d1b1ac66c8d24897ba3bd50d485a3b4e09c77b8aadb2cbc2c81",
    "json": "cc0e624c811f1cebc4b9be8b961316d32535b9a940467d7e652039d0009ecdab",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_operator(tmp_path, name, op):
    path = tmp_path / name
    write_doc(path, operator_doc(op))
    return str(path)


class TestSolve:
    def test_t2_ltc_dim(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "upper_triangular(2)", "--identity", "ltc")
        assert code == 0
        assert out.splitlines()[0] == "dim 3"

    def test_m2_ltc_dim(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "full_matrix(2)", "--identity", "ltc")
        assert code == 0 and out.splitlines()[0] == "dim 2"

    def test_example_ltc_dim(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "example_1_2", "--identity", "ltc")
        assert code == 0 and out.splitlines()[0] == "dim 144"

    @pytest.mark.parametrize("spec, field", [("upper_triangular(3)", "gma"), ("upper_triangular(1)", "algebra")])
    def test_solve_hands_over_the_entry_gma_when_it_has_one(self, capsys, monkeypatch, spec, field):
        seen = []

        def recording(target, kind):
            seen.append(target)
            return solve_identity_space(target, kind)

        monkeypatch.setattr(lietriple.cli, "solve_identity_space", recording)
        code, _, _ = run_cli(capsys, "solve", spec, "--identity", "ltc")
        assert code == 0 and len(seen) == 1
        assert seen[0] is getattr(resolve(spec), field)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "upper_triangular(2)", "--identity", "lc", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["dimension"] == doc["results"]["basis"].__len__()
        assert doc["status"] == "ok"

    def test_invalid_algebra_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "nope(3)", "--identity", "ltc")
        assert code == 2 and "invalid input" in err

    def test_reports_are_byte_identical(self, capsys):
        _, first, _ = run_cli(
            capsys, "solve", "full_matrix(2)", "--identity", "ltc", "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "solve", "full_matrix(2)", "--identity", "ltc", "--format", "json"
        )
        assert first == second

    def test_singular_kind_uses_block_structure(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "full_matrix(2)", "--identity", "sjder")
        assert code == 0 and out.splitlines()[0] == "dim 0"

    def test_the_shared_gma_keeps_its_dims(self, capsys):
        """The catalog's GMA refuses ``del``, so the next singular solve in the process still reads its block dims."""
        with pytest.raises(AttributeError, match="^GMA is immutable$"):
            del resolve("full_matrix(2)").gma.dims
        code, out, _ = run_cli(capsys, "solve", "full_matrix(2)", "--identity", "sjder")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == "702872b8f8e907b7b8d752d072d9d8bb4285f7dfbd79694e85ace9a0a74cf347"


class TestProper:
    def test_identity_on_m2_is_proper(self, capsys, tmp_path):
        entry = resolve("full_matrix(2)")
        path = write_operator(tmp_path, "id.op", LinearOperator.identity(entry.algebra))
        code, out, _ = run_cli(capsys, "proper", "full_matrix(2)", path)
        assert code == 0
        assert out.startswith("PROPER")

    def test_example_phi_not_proper(self, capsys, tmp_path):
        entry = resolve("example_1_2")
        path = write_operator(tmp_path, "phi.op", entry.extras["phi"])
        code, out, _ = run_cli(capsys, "proper", "example_1_2", path)
        assert code == 0
        assert out.startswith("NOT PROPER")
        assert "witness" in out

    def test_non_ltc_operator_is_math_failure(self, capsys, tmp_path):
        entry = resolve("full_matrix(2)")
        swap = operator_of(
            entry.algebra,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        path = write_operator(tmp_path, "swap.op", swap)
        code, _, err = run_cli(capsys, "proper", "full_matrix(2)", path)
        assert code == 1 and "mathematical check failed" in err

    def test_hash_mismatch_is_input_error(self, capsys, tmp_path):
        entry = resolve("full_matrix(2)")
        path = write_operator(tmp_path, "id.op", LinearOperator.identity(entry.algebra))
        code, _, err = run_cli(capsys, "proper", "upper_triangular(2)", path)
        assert code == 2 and "invalid input" in err


class TestDecompose:
    def test_block_decomposition(self, capsys, tmp_path):
        entry = resolve("upper_triangular(2)")
        path = write_operator(tmp_path, "id.op", LinearOperator.identity(entry.algebra))
        code, out, _ = run_cli(capsys, "decompose", "upper_triangular(2)", path)
        assert code == 0
        assert "block form conditions: pass" in out

    def test_generalized_decomposition(self, capsys, tmp_path):
        entry = resolve("upper_triangular(2)")
        alg = entry.algebra
        ad = operator_of(alg, left_mult(alg, alg.basis_element(0).coords)) - operator_of(
            alg, right_mult(alg, alg.basis_element(0).coords)
        )
        lam_op = ad + LinearOperator.identity(alg)
        xipath = write_operator(tmp_path, "xi.op", ad)
        lpath = write_operator(tmp_path, "lambda.op", lam_op)
        code, out, _ = run_cli(
            capsys, "decompose", "upper_triangular(2)", lpath, "--xi", xipath
        )
        assert code == 0
        assert "decomposed" in out


    def test_a_pair_off_the_identity_exits_1_with_its_witness(self, capsys, tmp_path):
        alg = resolve("upper_triangular(2)").algebra
        lam_op = LinearOperator.from_flat(alg, [int(k == 0) for k in range(alg.dim**2)])  # e0 -> e0, 0 elsewhere
        lpath = write_operator(tmp_path, "lambda.op", lam_op)
        xipath = write_operator(tmp_path, "xi.op", LinearOperator.from_flat(alg, [0] * alg.dim**2))
        code, out, err = run_cli(capsys, "decompose", "upper_triangular(2)", lpath, "--xi", xipath)
        assert (code, out) == (1, "")
        assert err == "mathematical check failed: identity fails at basis triple (0, 1, 0)\n"


class TestHypotheses:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "hypotheses", "full_matrix(2)")
        assert code == 0
        assert "properness sufficiency satisfied: True" in out
        assert "decomposition hypotheses satisfied: True" in out

    def test_candidate_file(self, capsys, tmp_path):
        path = tmp_path / "m0.json"
        path.write_text('[["1"]]')
        code, out, _ = run_cli(
            capsys, "hypotheses", "upper_triangular(2)", "--candidates-m0", str(path)
        )
        assert code == 0
        assert "(c): ['1']" in out

    @pytest.mark.parametrize(
        "vectors", [[["1", "2", "3", "4", "5"]], [["1"]]], ids=["too-long", "too-short"]
    )
    def test_candidate_of_wrong_length(self, capsys, tmp_path, vectors):
        path = tmp_path / "m0.json"
        path.write_text(json.dumps(vectors))  # dim M is 2 on upper_triangular(3)
        code, out, err = run_cli(
            capsys, "hypotheses", "upper_triangular(3)", "--candidates-m0", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1

    def test_scalar_algebra_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hypotheses", "full_matrix(1)")
        assert code == 2

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "hypotheses", "upper_triangular(3)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["decomposition_hypotheses"]["satisfied"] is True


class TestVerifyPaper:
    def test_exit_zero_and_byte_identical(self):
        cmd = [sys.executable, "-m", "lietriple.cli", "verify-paper", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["results"]["all_passed"] is True


    @pytest.mark.parametrize("fmt, digest", list(VERIFY_PAPER_DIGESTS.items()))
    def test_stdout_bytes_are_pinned(self, fmt, digest):
        cmd = [sys.executable, "-m", "lietriple.cli", "verify-paper", "--format", fmt]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("solve", "full_matrix(3)", "--identity", "ltc"),
            "0d3ddb5e59beb2fbc5f60caf890de0ec7fb5ec585b4aefebcac2f101ceedfa82",
        ),
        (
            ("solve", "upper_triangular(4)", "--identity", "ltd"),
            "921928131fcd0ca9b60099ac0bf3e733bd7f3cfa5847c302728a1aded315fd4e",
        ),
        # the two largest answers: the 144-dimensional ltd space, and the M4 ltc basis
        (
            ("solve", "example_1_2", "--identity", "ltd"),
            "c9e30cd3192cce98e798894bb6e5df151ce9df639d25176a619e6a5655685b93",
        ),
        (
            ("solve", "full_matrix(4)", "--identity", "ltc"),
            "8c864863a4d8a034e1818d6d349bd96bf3b01c46894499630b00a91e1f5ec84c",
        ),
    ],
)
def test_solve_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec, kind, digest",
    [
        ("upper_triangular(3)", "ltc", "3ee01e29027937e1107aec67881d3b02ceb86326c6361eca076c69bb2ab9d76a"),
        ("upper_triangular(3)", "sjder", "48c05d4ace164edbcb45a4b0901cdcf0d41f3db86adf2e5d5fb9e9de84e02bea"),
        ("example_1_2", "ltc", "dce9aa5ba8623b52f8f4863d024685c94b3f5508dd3a744f23aa8332f8f4d8f2"),
        ("example_1_2", "sjder", "cd81cd9922eedd4c3d62ec32b51d88577e1681358c11f040e613d165edca857c"),
    ],
)
def test_warm_cache_solve_prints_cold_bytes(cold_cache, capsys, spec, kind, digest):
    """A repeated request in one process, served from the memoized split and solve, prints the same bytes."""
    argv = ("solve", spec, "--identity", kind, "--format", "json")
    cold, warm = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert cold == warm
    code, out, _ = cold
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fixed_combination(entry, kind):
    """The operator sum of (-1)^k (k mod 3 + 1) times the k-th solved basis vector."""
    space = solve_identity_space(entry.algebra, kind)
    coeffs = [(-1) ** k * (k % 3 + 1) for k in range(space.dim)]
    flat = [sum(c * v[i] for c, v in zip(coeffs, space.basis)) for i in range(space.ambient)]
    return LinearOperator.from_flat(entry.algebra, flat)


# the argv of every subcommand and every optional argument, less --format,
# and {argument: path} for each document it reads; verify-paper reads no algebra
ECHO_CASES = [
    (("solve", "upper_triangular(2)", "--identity", "ltc"), {}),
    (("proper", "upper_triangular(2)", "phi.json"), {"operator": "phi.json"}),
    (("decompose", "upper_triangular(2)", "phi.json"), {"operator": "phi.json"}),
    (("decompose", "upper_triangular(2)", "lam.json", "--xi", "xi.json"), {"operator": "lam.json", "xi": "xi.json"}),
    (("hypotheses", "upper_triangular(2)"), {}),
    (("hypotheses", "upper_triangular(2)", "--candidates-m0", "m0.json"), {"candidates_m0": "m0.json"}),
    (("verify-paper",), None),
]


def test_echo_cases_cover_every_subcommand_and_optional_argument():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help", "--format"}
        used = {word for argv, _ in ECHO_CASES if argv[0] == name for word in argv}
        assert name in used and options <= used


@pytest.mark.parametrize("argv, documents", ECHO_CASES, ids=[" ".join(argv) for argv, _ in ECHO_CASES])
@pytest.mark.parametrize("first", [True, False], ids=["format-first", "format-last"])
def test_json_echoes_the_command_and_hashes_every_document(capsys, tmp_path, monkeypatch, argv, documents, first):
    """``command`` is the argv less ``--format VALUE``; ``inputs`` holds the algebra's hash and one per document read."""
    monkeypatch.chdir(tmp_path)
    entry = resolve("upper_triangular(2)")
    phi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_CENTRALIZER)
    xi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_DERIVATION)
    docs = {"phi.json": operator_doc(phi), "xi.json": operator_doc(xi), "lam.json": operator_doc(phi + xi)}
    docs["m0.json"] = [["1"]]
    for name, doc in docs.items():
        write_doc(name, doc)
    fmt = ("--format", "json")
    code, out, _ = run_cli(capsys, *(argv[:1] + fmt + argv[1:] if first else argv + fmt))
    report = json.loads(out)
    assert code == 0 and report["command"] == list(argv)
    canonical = {name: json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() for name, doc in docs.items()}
    expected = {} if documents is None else {"algebra_hash": entry.algebra.content_hash}
    for arg, path in (documents or {}).items():
        expected[f"{arg}_hash"] = hashlib.sha256(canonical[path]).hexdigest()
    assert report["inputs"] == expected


@pytest.mark.parametrize(
    "spec, argv, digest, fmt",
    [
        (
            "full_matrix(3)", ("proper", "phi.json"),
            "d959a564f461c7eb75f6acde36634ce33ed9735e46383b13aa8a49f3a0b9acf0", "json",
        ),
        (
            "full_matrix(3)", ("decompose", "phi.json"),
            "1c0dd683a78692af89148ca19fde6ee5c3426d9cc5a029f2ab13f8f0f5523fd6", "json",
        ),
        (
            "full_matrix(3)", ("decompose", "lam.json", "--xi", "xi.json"),
            "43ea0a310ac0ca34248205038adf76b8cbf30d2584309a5d44f64f39ea955f46", "json",
        ),
        (
            "upper_triangular(4)", ("proper", "phi.json"),
            "391193b0517afd4e3d3454fd01060be0cc04f684aca0be3fd734a16076d1ea19", "json",
        ),
        (
            "upper_triangular(4)", ("decompose", "phi.json"),
            "7cab37f3c05345b4107734c82d39273cb0452386e4367a4138885203bbf95fe4", "json",
        ),
        (
            "upper_triangular(4)", ("decompose", "lam.json", "--xi", "xi.json"),
            "ad24d949d465c1a10dd1f2f504d5652bd4aa3c8ee279026ba9d1aaf9990544d6", "json",
        ),
        (
            "full_matrix(3)", ("decompose", "phi.json"),
            "05fbf2b6514dcccbd01147c46e016a1ae84d8edfc76951b4c0f02e14127372c9", "text",
        ),
        (
            "upper_triangular(4)", ("decompose", "phi.json"),
            "3153b715bead4a442716864abebbd5858de9e23573d0918eca8a14dc747c4349", "text",
        ),
    ],
)
def test_certify_stdout_bytes_are_pinned(capsys, tmp_path, monkeypatch, spec, argv, digest, fmt):
    """proper/decompose stdout on fixed integer combinations of the LTC and LTD bases.

    The text rows print every corner through ``Matrix``'s repr; those of
    T4 are rectangular.
    """
    monkeypatch.chdir(tmp_path)
    entry = resolve(spec)
    phi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_CENTRALIZER)
    xi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_DERIVATION)
    for name, op in (("phi.json", phi), ("xi.json", xi), ("lam.json", phi + xi)):
        write_doc(name, operator_doc(op))
    code, out, _ = run_cli(capsys, argv[0], spec, *argv[1:], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_warm_cache_certify_commands_print_cold_bytes(cold_cache, capsys, tmp_path, monkeypatch):
    """proper, decompose, decompose --xi and hypotheses on T3, M3 and T4 print the same bytes cold and warm."""
    monkeypatch.chdir(tmp_path)
    argvs = []
    for spec in ("upper_triangular(3)", "full_matrix(3)", "upper_triangular(4)"):
        entry = resolve(spec)
        phi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_CENTRALIZER)
        xi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_DERIVATION)
        for name, op in (("phi", phi), ("xi", xi), ("lam", phi + xi)):
            write_doc(f"{name}-{spec}.json", operator_doc(op))
        for fmt in ("text", "json"):
            argvs += [
                ("proper", spec, f"phi-{spec}.json", "--format", fmt),
                ("decompose", spec, f"phi-{spec}.json", "--format", fmt),
                ("decompose", spec, f"lam-{spec}.json", "--xi", f"xi-{spec}.json", "--format", fmt),
                ("hypotheses", spec, "--format", fmt),
            ]
    cold_cache()
    cold, warm = ([run_cli(capsys, *argv) for argv in argvs] for _ in range(2))
    assert [code for code, _, _ in cold] == [0] * len(argvs)
    assert cold == warm
    for fmt, digest in VERIFY_PAPER_DIGESTS.items():
        code, out, _ = run_cli(capsys, "verify-paper", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reproduction_checks_assemble_example_1_2_once_per_process(cold_cache, monkeypatch):
    """Three in-process runs read example 1.2 through its named entry: one assembly, and equal checks each time."""
    import lietriple.gma
    from lietriple.cli import reproduction_checks

    assembled = []
    real = lietriple.gma.assemble

    def counting(ctx):
        assembled.append(real(ctx))
        return assembled[-1]

    monkeypatch.setattr(lietriple.gma, "assemble", counting)
    runs = [reproduction_checks() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2] and all(check["passed"] for check in runs[0])
    assert [u.content_hash for u in assembled] == [resolve("example_1_2").gma.content_hash]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "upper_triangular(1)", "--identity", "sjder"),
        ("decompose", "upper_triangular(1)", "op.json"),
        ("hypotheses", "upper_triangular(1)"),
    ],
)
def test_command_needing_block_structure_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "block algebra" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("proper", "upper_triangular(2)", "deep.json"), ("solve", "m2(deep.json)", "--identity", "ltc")],
    ids=["operator", "algebra"],
)
def test_deeply_nested_json_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and "nested too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("proper", "full_matrix(2)", "{name}"), ("solve", "m2({name})", "--identity", "ltc")],
    ids=["operator", "algebra"],
)
def test_overlong_path_exits_2_with_one_short_line(capsys, argv):
    name = "x" * 295 + ".json"
    code, out, err = run_cli(capsys, *(a.format(name=name) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert len(err.rstrip("\n")) <= 120


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            {"table": [[["1/0"]]]},
            [[["1"]]],
            {"table": [["10", "00"], ["00", "00"]]},
            {"table": [[[True]]]},
            {"table": [[["1.5"]]]},
            *({"table": [[["1"]]], "labels": [label]} for label in (["x"], 1, None, True)),
        ],
        ids=[
            "zero-denominator", "top-level-array", "string-rows", "bool-entry", "decimal-entry",
            "list-label", "int-label", "null-label", "bool-label",
        ],
    )
    def test_exit_two_with_one_line(self, capsys, tmp_path, doc):
        path = tmp_path / "A.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", f"m2({path})", "--identity", "ltc")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, key", [("algebra", "table"), ("bimodule", "dim"), ("operator", "matrix")]
    )
    def test_missing_key_names_document_and_key(self, capsys, tmp_path, kind, key):
        p = _one_dim_documents(tmp_path)
        spec = f"tri({p['A']},{p['M']},{p['B']})"
        identity = LinearOperator.identity(resolve(spec).algebra)
        p["operator"] = write_operator(tmp_path, "op.json", identity)
        path = Path(p[{"algebra": "A", "bimodule": "M"}.get(kind, kind)])
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "proper", spec, p["operator"])
        assert code == 2 and out == ""
        assert err == f'invalid input: {kind} document is missing "{key}"\n'


def _one_dim_documents(tmp_path, **overrides):
    """Paths of A, M and B documents for tri(A,M,B) over Q, with overrides."""
    docs = {
        "A": {"table": [[["1"]]]},
        "M": {"dim": 1, "left": [[["1"]]], "right": [[["1"]]]},
        "B": {"table": [[["1"]]]},
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, **overrides.get(name, {})}))
        paths[name] = str(path)
    return paths


# sha256 over the exit code, stdout and stderr of every command below on
# the m2(FILE) and tri(A,M,B) specs, the CLI paths through ``assemble``
DOCUMENT_SPEC_DIGEST = "a8af42f456ed61462865c15e70fbbdf912c923e814994e539f6aa422c6340b9c"


def test_document_spec_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    """solve (every kind), hypotheses, proper and decompose on document specs, in text and JSON."""
    monkeypatch.chdir(tmp_path)
    write_doc("T2.json", algebra_doc(upper_triangular(2)))
    write_doc("N3.json", algebra_doc(strict_upper_3x3()))
    _one_dim_documents(Path("."))
    h = hashlib.sha256()
    for spec in ("m2(T2.json)", "m2(N3.json)", "tri(A.json,M.json,B.json)"):
        entry = resolve(spec)
        phi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_CENTRALIZER)
        xi = _fixed_combination(entry, IdentityKind.LIE_TRIPLE_DERIVATION)
        for name, op in (("phi", phi), ("xi", xi), ("lam", phi + xi)):
            write_doc(f"{name}.json", operator_doc(op))
        argvs = [("solve", spec, "--identity", kind.value) for kind in IdentityKind] + [
            ("hypotheses", spec),
            ("proper", spec, "phi.json"),
            ("decompose", spec, "phi.json"),
            ("decompose", spec, "lam.json", "--xi", "xi.json"),
        ]
        for fmt in ("text", "json"):
            for argv in argvs:
                h.update(json.dumps([argv, *run_cli(capsys, *argv, "--format", fmt)]).encode())
    assert h.hexdigest() == DOCUMENT_SPEC_DIGEST


_DEEP = "1"
for _ in range(500):
    _DEEP = [_DEEP]


@pytest.mark.parametrize(
    "overrides, op_hash, spec",
    [
        ({"A": {"table": [[[_DEEP]]]}}, None, None),
        ({"A": {"dim": "9" * 1000}}, None, None),
        ({"M": {"dim": _DEEP}}, None, None),
        ({"A": {"dim": 10**300}}, None, None),
        ({"A": {"labels": [_DEEP]}}, None, None),
        ({}, "f" * 1000, None),
        ({}, None, "x" * 1000),
    ],
    ids=["rational", "algebra-dim", "bimodule-dim", "dim-mismatch", "label", "operator-hash", "algebra-spec"],
)
def test_echoed_input_value_is_bounded(capsys, tmp_path, overrides, op_hash, spec):
    p = _one_dim_documents(tmp_path, **overrides)
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"algebra_hash": op_hash, "matrix": [["1"]]}))
    code, out, err = run_cli(capsys, "proper", spec or f"tri({p['A']},{p['M']},{p['B']})", str(op))
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert len(err) <= 201


class TestShapeErrors:
    """Documents whose shapes do not fit exit 2 with one line, like malformed ones."""

    @pytest.mark.parametrize(
        "matrix",
        # the ragged one holds 4 x 4 entries in all, but not 4 columns of 4
        [[], [["1"]], [["0"] * 5, ["0"] * 3, ["0"] * 4, ["0"] * 4]],
        ids=["empty-matrix", "one-by-one-matrix", "ragged-columns"],
    )
    def test_operator_of_wrong_size(self, capsys, tmp_path, matrix):
        entry = resolve("full_matrix(2)")
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"algebra_hash": entry.algebra.content_hash, "matrix": matrix}))
        code, out, err = run_cli(capsys, "proper", "full_matrix(2)", str(path))
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"M": {"dim": "1"}},
            {"A": {"labels": ["x", "y"]}},
            {"A": {"dim": 5}},
        ],
        ids=["string-bimodule-dim", "label-count", "algebra-dim-mismatch"],
    )
    def test_document_of_wrong_shape(self, capsys, tmp_path, overrides):
        p = _one_dim_documents(tmp_path, **overrides)
        spec = f"tri({p['A']},{p['M']},{p['B']})"
        code, out, err = run_cli(capsys, "solve", spec, "--identity", "ltc")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_action_of_wrong_shape(self, capsys, tmp_path, side):
        # a 1 x 1 x 2 action on M = Q, which must be 1 x 1 x 1
        p = _one_dim_documents(tmp_path, M={side: [[["1", "0"]]]})
        code, out, err = run_cli(capsys, "solve", f"tri({p['A']},{p['M']},{p['B']})", "--identity", "ltc")
        assert (code, out) == (2, "")
        assert err == f"invalid input: {side} action tensor must be 1 x 1 x 1\n"

    def test_failed_annihilating_condition(self, capsys, tmp_path):
        # the dual numbers acting on M = Q through 1 alone: x annihilates M
        p = _one_dim_documents(
            tmp_path,
            A={"table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]},
            M={"left": [[["1"]], [["0"]]]},
        )
        code, out, err = run_cli(capsys, "hypotheses", f"tri({p['A']},{p['M']},{p['B']})")
        assert (code, out, err) == (2, "", "invalid input: annihilating conditions do not hold\n")

    @pytest.mark.parametrize("document", ["table", "context"])
    def test_non_associative_document(self, capsys, tmp_path, document):
        # e0 e1 = e0 and e1 e0 = 0, so (e0 e1) e0 = e0 while e0 (e1 e0) = 0;
        # or Q acting on M = Q by 2 from the left: (1 * 1) m = 2m but 1 (1 m) = 4m
        if document == "table":
            path = tmp_path / "na.json"
            path.write_text(json.dumps({"table": [[[1, 0], [1, 0]], [[0, 0], [0, 0]]]}))
            spec = f"m2({path})"
        else:
            p = _one_dim_documents(tmp_path, M={"left": [[["2"]]]})
            spec = f"tri({p['A']},{p['M']},{p['B']})"
        code, out, err = run_cli(capsys, "solve", spec, "--identity", "ltc")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1

    def test_consistent_dims_are_accepted(self, capsys, tmp_path):
        p = _one_dim_documents(tmp_path, A={"dim": 1, "labels": ["1"]})
        spec = f"tri({p['A']},{p['M']},{p['B']})"
        code, out, _ = run_cli(capsys, "solve", spec, "--identity", "ltc")
        assert code == 0 and out.startswith("dim ")


    @pytest.mark.parametrize("kind", ["full_matrix", "upper_triangular"])
    def test_matrix_size_too_large(self, capsys, kind):
        code, out, err = run_cli(capsys, "solve", f"{kind}(99999999999999999999)", "--identity", "ltc")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1

    # full_matrix(40) would ask for a 1600^3 table; the size is refused before
    # a cell is listed, so a helper that fails when called is never reached
    def test_table_past_the_entry_bound_is_refused_unbuilt(self, cold_cache, capsys, monkeypatch):
        def unbuilt(cells):
            raise AssertionError("a table was listed")

        monkeypatch.setattr(lietriple.catalog, "_matrix_units", unbuilt)
        code, out, err = run_cli(capsys, "solve", "full_matrix(40)", "--identity", "lc")
        assert (code, out, err) == (2, "", "invalid input: matrix size 40 is too large to build\n")

    # 4 x 41 = 164 and 1 + 160 + 1 = 162 exceed dim 161, the largest table of
    # at most 2**22 entries: both block tables are refused before allocation
    @pytest.mark.parametrize("route", ["m2", "tri"])
    def test_block_table_past_the_entry_bound_exits_2(self, capsys, tmp_path, route):
        if route == "m2":
            path = tmp_path / "Z.json"
            path.write_text(json.dumps({"table": [[[0] * 41] * 41] * 41}))
            spec, dim = f"m2({path})", 164
        else:
            zero = lambda a, b, c: [[[0] * c] * b] * a
            p = _one_dim_documents(tmp_path, M={"dim": 160, "left": zero(1, 160, 160), "right": zero(160, 1, 160)})
            spec, dim = f"tri({p['A']},{p['M']},{p['B']})", 162
        code, out, err = run_cli(capsys, "solve", spec, "--identity", "ltc")
        assert (code, out) == (2, "")
        assert err == f"invalid input: a {dim} x {dim} x {dim} tensor is too large to build\n"


class TestPreconditionErrors:
    """A command that needs a unit, on the non-unital example, exits 2: no check ran."""

    def test_hypotheses_needs_a_unit(self, capsys):
        code, out, err = run_cli(capsys, "hypotheses", "example_1_2")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and "unital" in err and err.count("\n") == 1

    def test_block_decompose_needs_a_unit(self, capsys, tmp_path):
        alg = resolve("example_1_2").algebra
        path = write_operator(tmp_path, "id.json", LinearOperator.identity(alg))
        code, out, err = run_cli(capsys, "decompose", "example_1_2", path)
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and "unital" in err and err.count("\n") == 1


def test_cli_import_leaves_numpy_unloaded():
    # Start-up imports nothing the CLI does not use: not numpy, and not
    # dataclasses or the inspect it pulls in.  Only what the import adds
    # counts, so a site hook that preloads one of them does not fail this.
    src = str(Path(lietriple.__file__).resolve().parents[1])
    script = (
        "import sys; before = set(sys.modules); import lietriple.cli; "
        "print(' '.join(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == ""


def test_warm_request_leaves_no_cyclic_garbage(capsys):
    # Text output: the stdlib json indent encoder leaves cycles of its own.
    argv = ["solve", "full_matrix(3)", "--identity", "ltd"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
