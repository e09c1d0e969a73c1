"""End-to-end command-line behaviour, exit codes and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sga.cli import _json_dumps, main
from sga.matrices import Matrix
from sga.representation import RepConfig, Signature, build_representation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_outputs_representation(capsys):
    code, out, _ = run(capsys, "build", "-K", "3", "-M", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 4
    rep = build_representation(RepConfig(Signature(spacelike=3, timelike=1)))
    assert Matrix.from_json(blob["epsilon"]) == rep.eps
    assert Matrix.from_json(blob["gamma_chiral_2bar"]) == rep.gamma_chiral(2, barred=True)


def test_build_determinism(capsys):
    _, first, _ = run(capsys, "build", "-K", "4")
    _, second, _ = run(capsys, "build", "-K", "4")
    assert first == second


def test_verify_pauli_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pauli")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_dirac_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dirac", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["failed"] == 0 and blob["passed"] == 16 + 2 - 2  # 16 identity checks


def test_verify_seed_determinism(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "exclusion", "--seed", "7")
    _, second, _ = run(capsys, "verify", "--suite", "exclusion", "--seed", "7")
    assert first == second


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "-K", "3", "e[d]' e[u]")
    assert code == 0
    blob = json.loads(out)
    assert blob["species"] == "scalar"
    assert blob["value"] == {"re": ["-1", "0"], "im": ["0", "0"]}


def test_eval_forbidden(capsys):
    code, _, err = run(capsys, "eval", "-K", "3", "e[u] e[d]")
    assert code == 1
    assert "forbidden" in err
    code, out, _ = run(capsys, "eval", "-K", "3", "--forbidden-as-zero", "e[u] e[d]")
    assert code == 0
    assert json.loads(out)["species"] == "formal_sum"


def test_tables_markdown(capsys):
    code, out, _ = run(capsys, "tables", "--max-dim", "9", "--kind", "metric")
    assert code == 0
    assert "N mod 8" in out


def test_tables_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "tables", "--max-dim", "9", "--kind", "commutation", "--format", "csv"
    )
    assert code == 0 and out.startswith("N,")
    code, out, _ = run(
        capsys,
        "tables",
        "--max-dim", "9",
        "--kind", "conjugation",
        "--km-min", "-1",
        "--km-max", "7",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert [r["difference"] for r in blob["conjugation"]] == list(range(-1, 8))


def test_decompose_round_trip(tmp_path, capsys):
    rep = build_representation(RepConfig(Signature(spacelike=4)))
    m = rep.gamma_chiral(1)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(m.to_json()))
    code, out, _ = run(capsys, "decompose", "-K", "4", "--input", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob == {"g1": {"re": ["1", "0"], "im": ["0", "0"]}}
    code, out, _ = run(
        capsys, "decompose", "-K", "4", "--input", str(path), "--basis", "outer"
    )
    assert code == 0
    assert len(json.loads(out)) == 2  # two outer products carry the chiral vector


def test_decompose_float_matrix(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps([[[0.0, 0.0], [1.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    code, out, _ = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"g1"}


def test_decompose_int_matrix_is_exact(tmp_path, capsys):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, _ = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"unit": {"re": ["1", "0"], "im": ["0", "0"]}}


@pytest.mark.parametrize(
    "blob",
    [{"entries": 5}, 5, [[1, 0], [0]], [1, 0], [["x"]], [[{"re": ["1", "0"]}, 0], [0, 1]]],
    ids=["entries-not-a-list", "not-a-list", "ragged", "rows-not-lists", "string-entry",
         "dict-entry-without-im"],
)
def test_decompose_malformed_matrix_exit_two(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_reflection(capsys):
    code, out, _ = run(capsys, "classify-reflection", "-K", "3", "-M", "1", "--generators", "4")
    assert code == 0 and out.strip() == "P"
    code, out, _ = run(
        capsys,
        "classify-reflection",
        "-K", "3",
        "--odd-mode", "embed-scalar-n",
        "--generators", "scalar",
    )
    assert code == 0 and out.strip() == "P"


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    # domain validation errors also map to exit code 2
    code, _, err = run(capsys, "build", "-K", "3", "--metric", "prime_standard")
    assert code == 2 and "prime" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "decompose", "-K", "2", "--input", "/nonexistent.json")
    assert code == 2 and err


def test_unreadable_input_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "decompose", "-K", "2", "--input", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0", "-4"])
def test_bad_max_dim_env_exit_two(capsys, monkeypatch, value):
    monkeypatch.setenv("SGA_MAX_DIM", value)
    code, out, err = run(capsys, "build", "-K", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "SGA_MAX_DIM" in err


def test_max_dim_env(capsys, monkeypatch):
    monkeypatch.setenv("SGA_MAX_DIM", "4")
    code, _, err = run(capsys, "build", "-K", "6")
    assert code == 2 and "SGA_MAX_DIM" in err
    monkeypatch.setenv("SGA_MAX_DIM", "8")
    code, _, _ = run(capsys, "build", "-K", "6")
    assert code == 0


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rep.json"
    code, out, _ = run(capsys, "build", "-K", "2", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dim"] == 2


def test_build_matrices_decode_to_the_representation(capsys):
    code, out, _ = run(capsys, "build", "-K", "3", "-M", "1")
    assert code == 0
    blob = json.loads(out)
    rep = build_representation(RepConfig(Signature(spacelike=3, timelike=1)))
    expected = {
        "epsilon": rep.eps,
        "epsilon_alt": rep.eps_alt,
        "kappa": rep.kappa,
        "pseudoscalar": rep.pseudoscalar,
        "Gamma": rep.Gamma,
        "C": rep.C,
    }
    for k in range(1, rep.n_bits + 1):
        expected[f"gamma_plus_{k}"] = rep.gamma_plus(k)
        expected[f"gamma_minus_{k}"] = rep.gamma_minus(k)
        expected[f"gamma_chiral_{k}"] = rep.gamma_chiral(k)
        expected[f"gamma_chiral_{k}bar"] = rep.gamma_chiral(k, barred=True)
    assert set(blob) == set(expected) | {"config", "dim"}
    for key, matrix in expected.items():
        assert Matrix.from_json(blob[key]) == matrix, key


def test_eval_multivector_value_decodes(capsys):
    code, out, _ = run(capsys, "eval", "-K", "4", "g[1] g[2bar]")
    assert code == 0
    blob = json.loads(out)
    assert blob["species"] == "multivector"
    rep = build_representation(RepConfig(Signature(spacelike=4)))
    assert Matrix.from_json(blob["value"]) == rep.gamma_chiral(1) @ rep.gamma_chiral(2, barred=True)


def test_build_k17_is_compact(tmp_path, capsys):
    target = tmp_path / "k17.json"
    code, _, _ = run(capsys, "build", "-K", "17", "-o", str(target))
    assert code == 0
    assert target.stat().st_size < 5_000_000
    blob = json.loads(target.read_text())
    assert Matrix.from_json(blob["C"]) == build_representation(spacelike=17).C


def test_build_k17_writes_one_entry_per_line(tmp_path, capsys):
    target = tmp_path / "k17.json"
    code, _, _ = run(capsys, "build", "-K", "17", "-o", str(target))
    assert code == 0
    text = target.read_text()
    assert len(text.encode()) < 600_000 and text.count("\n") < 10_000
    assert '      [0, 255, {"im": ["0", "0"], "re": ["1", "0"]}],\n' in text
    blob = json.loads(text)
    rep = build_representation(spacelike=17)
    assert Matrix.from_json(blob["C"]) == rep.C
    redumped = json.loads(json.dumps(blob, indent=2, sort_keys=True))
    assert Matrix.from_json(redumped["C"]) == rep.C


def test_json_layout_is_otherwise_indent_2():
    matrix = {"shape": [1, 2], "entries": [[0, 1, {"re": ["1", "0"], "im": ["0", "0"]}]]}
    assert _json_dumps({"b": matrix, "a": [1, {"x": None}]}) == """{
  "a": [
    1,
    {
      "x": null
    }
  ],
  "b": {
    "entries": [
      [0, 1, {"im": ["0", "0"], "re": ["1", "0"]}]
    ],
    "shape": [
      1,
      2
    ]
  }
}"""
    # without a "shape" key an "entries" list is not a matrix's
    other = {"entries": [[0, 1, 2]], "n": {"3": [4.5, "x"]}}
    assert _json_dumps(other) == json.dumps(other, indent=2, sort_keys=True)


def test_closed_stdout_exits_141_quietly():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sga.cli", "build", "-K", "13"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": str(src)},
    )
    proc.stdout.close()  # the reader goes away before anything is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
