import json

import numpy as np
import pytest

from lyapstein import cli


def write_matrix_json(path, rows):
    path.write_text(json.dumps({"n": len(rows), "rows": rows}))
    return str(path)


def write_matrix_text(path, rows):
    lines = [str(len(rows))] + [" ".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixParsing:
    def test_json_and_text_agree(self, tmp_path):
        rows = [[1.0, -1.0], [-1.0, 1.0]]
        a = cli.load_matrix(write_matrix_json(tmp_path / "a.json", rows))
        b = cli.load_matrix(write_matrix_text(tmp_path / "a.txt", rows))
        assert np.array_equal(a, b)

    def test_rejects_ragged(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "rows": [[1, 2], [3]]}')
        with pytest.raises(cli.ParseError):
            cli.load_matrix(str(p))

    def test_rejects_wrong_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3\n1 0\n0 1\n")
        with pytest.raises(cli.ParseError):
            cli.load_matrix(str(p))

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent/path.json")
        assert code == cli.EXIT_PARSE


class TestClassify:
    def test_sim_headline(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "a.json", [[1, -1], [-1, 1]])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "singular irreducible M-matrix; all SIM properties verified" in out

    def test_not_z(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "a.json", [[0, 1], [1, 0]])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "not a Z-matrix" in out and "Schur stable: False" in out

    def test_invertible_with_audit(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "a.json", [[2, -1], [-1, 2]])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "invertible M-matrix; equivalence audit: consistent" in out

    def test_json_roundtrip(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "a.json", [[1, -1], [-1, 1]])
        code, out, _ = run(capsys, "classify", path, "--json")
        doc = json.loads(out)
        assert doc["result"]["m_class"] == "singular_m"
        assert doc["result"]["sim"]["all_true"] is True

    def test_json_strict_for_non_z(self, tmp_path, capsys):
        # the shift is undefined outside the Z class; strict JSON gets null
        path = write_matrix_json(tmp_path / "a.json", [[0, 1], [1, 0]])
        code, out, _ = run(capsys, "classify", path, "--json")
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
        assert doc["result"]["s"] is None


class TestOperator:
    def test_analyze(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "j.json", [[0, 1], [-1, 0]])
        code, out, _ = run(capsys, "operator", "lyapunov", path, "--analyze")
        assert code == 0
        assert "trivially range monotone: yes" in out
        assert "T^3 = -4 * T" in out

    def test_stein_refutation(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "d.json", [[1, 0], [0, 2]])
        code, out, _ = run(capsys, "operator", "stein", path, "--analyze", "--json")
        doc = json.loads(out)
        mono = doc["result"]["monotonicity"]
        assert code == 0
        assert mono["range_monotone"] == "no"
        assert np.allclose(mono["witness"], [[0, 0], [0, -1]], atol=1e-6)


class TestSolve:
    def test_solves(self, tmp_path, capsys):
        a = write_matrix_json(tmp_path / "a.json", [[1, 0], [0, 1]])
        q = write_matrix_json(tmp_path / "q.json", [[2, 0], [0, 2]])
        code, out, _ = run(capsys, "solve", "lyapunov", a, q, "--json")
        doc = json.loads(out)
        assert code == 0
        assert np.allclose(doc["result"]["x"], np.eye(2))
        assert doc["result"]["solution_class"] == "positive_definite"

    def test_singular_exit_code(self, tmp_path, capsys):
        a = write_matrix_json(tmp_path / "a.json", [[0, 1], [-1, 0]])
        q = write_matrix_json(tmp_path / "q.json", [[1, 0], [0, 1]])
        code, out, _ = run(capsys, "solve", "lyapunov", a, q)
        assert code == cli.EXIT_SINGULAR
        assert "kernel" in out


class TestGroupinv:
    def test_nonexistent(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "n.json", [[0, 1], [0, 0]])
        code, out, _ = run(capsys, "groupinv", path)
        assert code == 0
        assert "does not exist (index 2)" in out

    def test_spectral_value(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "a.json", [[1, -1], [-1, 1]])
        code, out, _ = run(capsys, "groupinv", path, "--json")
        doc = json.loads(out)
        assert np.allclose(doc["result"]["inverse"],
                           np.array([[0.25, -0.25], [-0.25, 0.25]]))


class TestFeas:
    def test_orthant_certificate(self, tmp_path, capsys):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"ambient": "vec", "n": 2, "vectors": [[1, -1]]}))
        code, out, _ = run(capsys, "feas", "orthant", str(p), "--json")
        doc = json.loads(out)
        assert doc["result"]["status"] == "trivial_certified"
        cert = np.array(doc["result"]["certificate"])
        assert np.all(cert >= 1 - 1e-9)

    def test_psd_witness(self, tmp_path, capsys):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"ambient": "sym", "n": 2,
                                 "matrices": [[[1, 0], [0, 1]]]}))
        code, out, _ = run(capsys, "feas", "psd", str(p), "--json")
        doc = json.loads(out)
        assert doc["result"]["status"] == "nontrivial_witness"

    def test_capability_exit(self, tmp_path, capsys):
        # an order-200 Lyapunov operator (d = 20100, 3.2 GB dense) trips the size guard
        path = write_matrix_json(tmp_path / "big.json", np.eye(200).tolist())
        code, _, err = run(capsys, "operator", "lyapunov", path)
        assert code == cli.EXIT_CAPABILITY

    def test_classify_order_sixteen(self, tmp_path, capsys):
        rows = (np.eye(16) - np.full((16, 16), 1 / 16)).tolist()
        path = write_matrix_json(tmp_path / "big.json", rows)
        code, out, _ = run(capsys, "classify", path, "--json")
        assert code == 0
        assert json.loads(out)["result"]["sim"]["all_true"]


class TestReproduce:
    def test_entry(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--entry", "illus_st(b)")
        assert code == 0 and "PASS illus_st(b)" in out

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "reproduce", "--entry", "nope")
        assert code == cli.EXIT_PARSE and "known ids" in err

    def test_table(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "--json")
        doc = json.loads(out)
        assert code == 0
        rows = {r["matrix_class"]: r for r in doc["result"]["rows"]}
        assert rows["square_is_identity"]["lyapunov"]["answer"] == "no"
        assert rows["square_is_identity"]["stein"]["answer"] == "yes"


class TestDeterminism:
    def test_seeded_json_byte_identical(self, tmp_path, capsys):
        path = write_matrix_json(tmp_path / "a.json", [[1, 0], [0, 2]])
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "operator", "stein", path,
                               "--analyze", "--json", "--seed", "42")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_negative_zero_normalized(self):
        assert cli._fmt(-0.0) == "0"
        assert cli._fmt(float(np.float64("-0.0"))) == "0"
