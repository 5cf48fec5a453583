import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lietriple
from lietriple.algebra import LinearOperator
from lietriple.catalog import resolve
from lietriple.cli import main
from lietriple.io import operator_to_doc, save_json
from lietriple.linalg import Matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_operator(tmp_path, name, op):
    path = tmp_path / name
    save_json(str(path), operator_to_doc(op))
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
        swap = LinearOperator(
            entry.algebra,
            Matrix.from_cols([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
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
        ad = LinearOperator(
            alg,
            alg.left_mult_of(alg.basis_element(0).coords)
            - alg.right_mult_of(alg.basis_element(0).coords),
        )
        lam_op = ad + LinearOperator.identity(alg)
        xipath = write_operator(tmp_path, "xi.op", ad)
        lpath = write_operator(tmp_path, "lambda.op", lam_op)
        code, out, _ = run_cli(
            capsys, "decompose", "upper_triangular(2)", lpath, "--xi", xipath
        )
        assert code == 0
        assert "decomposed" in out


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


    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "b26cdec685a19d1b1ac66c8d24897ba3bd50d485a3b4e09c77b8aadb2cbc2c81"),
            ("json", "cc0e624c811f1cebc4b9be8b961316d32535b9a940467d7e652039d0009ecdab"),
        ],
    )
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
    ],
)
def test_solve_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            {"table": [[["1/0"]]]},
            [[["1"]]],
            {"table": [["10", "00"], ["00", "00"]]},
            {"table": [[[True]]]},
            {"table": [[["1.5"]]]},
        ],
        ids=["zero-denominator", "top-level-array", "string-rows", "bool-entry", "decimal-entry"],
    )
    def test_exit_two_with_one_line(self, capsys, tmp_path, doc):
        path = tmp_path / "A.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", f"m2({path})", "--identity", "ltc")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1


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


class TestShapeErrors:
    """Documents whose shapes do not fit exit 2 with one line, like malformed ones."""

    @pytest.mark.parametrize(
        "matrix", [[], [["1"]]], ids=["empty-matrix", "one-by-one-matrix"]
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

    def test_consistent_dims_are_accepted(self, capsys, tmp_path):
        p = _one_dim_documents(tmp_path, A={"dim": 1, "labels": ["1"]})
        spec = f"tri({p['A']},{p['M']},{p['B']})"
        code, out, _ = run_cli(capsys, "solve", spec, "--identity", "ltc")
        assert code == 0 and out.startswith("dim ")


    # Only this 20-digit size: it is rejected before anything is allocated,
    # while a size that fits an index would try to build an n^6 tensor.
    @pytest.mark.parametrize("kind", ["full_matrix", "upper_triangular"])
    def test_matrix_size_too_large(self, capsys, kind):
        code, out, err = run_cli(capsys, "solve", f"{kind}(99999999999999999999)", "--identity", "ltc")
        assert code == 2 and out == ""
        assert err.startswith("invalid input:") and err.count("\n") == 1


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
    src = str(Path(lietriple.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lietriple.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "False"
