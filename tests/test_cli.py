"""End-to-end command-line behaviour, exit codes and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sga import suites
from sga.blades import decompose_multivector, spinor_outer_decompose
from sga.cli import SUITE_NAMES, _json_dumps, main
from sga.matrices import Matrix
from sga.representation import RepConfig, Signature, build_representation
from sga.scalars import ONE, SQRT2, Scalar


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


def test_verify_all_prints_the_golden_report(capsys):
    """`sga verify --suite all --seed 1` prints tests/golden/verify-all-seed1.txt byte for byte."""
    code, out, err = run(capsys, "verify", "--suite", "all", "--seed", "1")
    assert (code, err) == (0, "")
    assert out.encode() == (Path(__file__).parent / "golden" / "verify-all-seed1.txt").read_bytes()


def test_suite_choices_are_the_suite_registries():
    """The parser lists the suite names without importing the suites, so they are pinned to the registries here."""
    assert SUITE_NAMES == (*sorted(suites.SUITES), *sorted(suites.EXTRA_SUITES))


def test_verify_seed_defaults_to_the_suites_default(monkeypatch, capsys):
    seeds = []
    monkeypatch.setattr(suites, "run_suite", lambda name, seed: seeds.append(seed) or [])
    run(capsys, "verify", "--suite", "pauli")
    run(capsys, "verify", "--suite", "pauli", "--seed", "7")
    assert seeds == [suites.DEFAULT_SEED, 7]


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


VALUE_FIELDS = {
    "metric": ("sq_standard", "sq_alternative"),
    "commutation": ("sign_standard", "sign_alternative"),
    "conjugation": ("sym_standard", "sym_alternative"),
}


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("metric", ["standard", "alternative"])
def test_tables_show_only_the_selected_metric_in_every_format(capsys, fmt, metric):
    base = ("tables", "--max-dim", "3", "--km-min", "0", "--km-max", "2", "--format", fmt)
    code, out, _ = run(capsys, *base, "--metric", metric)
    _, both, _ = run(capsys, *base)
    assert code == 0
    other = "alternative" if metric == "standard" else "standard"
    if fmt == "md":
        labels = [line.split(" | ")[0] for line in out.splitlines() if line.startswith("| ") and "mod 8" not in line]
        assert labels == [f"| {metric}"] * 3
        assert [line for line in both.splitlines() if not line.startswith(f"| {other} ")] == out.splitlines()
    elif fmt == "csv":
        headers = [line for line in out.splitlines() if line.startswith(("N,", "K-M,"))]
        assert headers == [f"N,{VALUE_FIELDS[kind][metric == 'alternative']}" for kind in ("metric", "commutation")] + [
            f"K-M,{VALUE_FIELDS['conjugation'][metric == 'alternative']}"]
    else:
        blob, full = json.loads(out), json.loads(both)
        assert blob.keys() == full.keys() == VALUE_FIELDS.keys()
        for kind, (standard, alternative) in VALUE_FIELDS.items():
            kept, dropped = (standard, alternative) if metric == "standard" else (alternative, standard)
            assert blob[kind] == [{k: v for k, v in row.items() if k != dropped} for row in full[kind]]
            assert all(kept in row for row in blob[kind])


@pytest.mark.parametrize(
    "argv, name",
    [(("--max-dim", "0"), "N"), (("--km-min", "3", "--km-max", "2"), "K-M")],
)
def test_tables_empty_range_exit_two(capsys, argv, name):
    code, out, err = run(capsys, "tables", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{name} range" in err and "empty" in err


@pytest.mark.parametrize("code_text, length", [("u", 1), ("uuu", 3)])
def test_eval_wrong_bitcode_length_exit_two(capsys, code_text, length):
    code, out, err = run(capsys, "eval", "-K", "4", f"e[{code_text}]")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bitcode length {length}" in err


@pytest.mark.parametrize("argv, named", [
    (("eval", "-K", "4", "g[abc]"), ("g[abc]", "plane number", "'abc'")),
    (("eval", "-K", "4", "g[+x]"), ("g[+x]", "plane number", "'x'")),
    (("eval", "-K", "3", "a[x]"), ("a[x]", "axis number", "'x'")),
    (("classify-reflection", "-K", "3", "--generators", "1,,2"), ("--generators", "axis numbers", "'' in '1,,2'")),
    (("classify-reflection", "-K", "3", "--generators", ""), ("--generators", "axis numbers", "'' in ''")),
    (("build", "-K", "2", "--timelike-axes", "a"), ("--timelike-axes", "axis numbers", "'a'")),
])
def test_a_token_that_is_not_a_number_exit_two(capsys, argv, named):
    """The message names the token and what was expected, not Python's int() parse."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "invalid literal" not in err
    assert all(text in err for text in named), err


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


def test_decompose_keys_come_out_sorted(tmp_path, capsys):
    rep = build_representation(RepConfig(Signature(spacelike=4)))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps((rep.gamma(1) + rep.pseudoscalar).to_json()))
    keys = {}
    for basis in ("blades", "outer"):
        code, out, _ = run(capsys, "decompose", "-K", "4", "--input", str(path), "--basis", basis)
        assert code == 0
        keys[basis] = list(json.loads(out))
        assert keys[basis] == sorted(keys[basis])
    # by label, not by grade: the pseudoscalar comes between g1 and g1bar
    assert keys["blades"] == ["g1", "g1^g1bar^g2^g2bar", "g1bar"]


def test_decompose_prints_one_coefficient_per_line(tmp_path, capsys):
    rep = build_representation(RepConfig(Signature(spacelike=6)))
    m = rep.gamma(1) + rep.pseudoscalar + rep.C
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(m.to_json()))
    for basis, coeffs in (("blades", {b.label(): c for b, c in decompose_multivector(rep, m).items()}),
                          ("outer", {f"{a},{b}": c for (a, b), c in spinor_outer_decompose(rep, m).items()})):
        code, out, _ = run(capsys, "decompose", "-K", "6", "--input", str(path), "--basis", basis)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(coeffs) + 2
        for line, key in zip(lines[1:-1], sorted(coeffs)):
            assert json.loads("{" + line.rstrip(",") + "}") == {key: coeffs[key].to_json()}
        assert json.loads(out) == {k: c.to_json() for k, c in coeffs.items()}


def test_decompose_of_zero_is_an_empty_object(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([[0, 0], [0, 0]]))
    assert run(capsys, "decompose", "-K", "2", "--input", str(path)) == (0, "{}\n", "")


def test_decompose_float_matrix(tmp_path, capsys):
    """JSON floats are read as the exact decimals they print as, so the coefficients are exact."""
    path = tmp_path / "float.json"
    path.write_text(json.dumps([[[0.0, 0.0], [1.5, 0.1]], [[0.0, 0.0], [0.0, 0.0]]]))
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps([[0, {"re": ["3/2", "0"], "im": ["1/10", "0"]}], [0, 0]]))
    code, out, _ = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 0
    assert set(json.loads(out)) == {"g1"}
    assert run(capsys, "decompose", "-K", "2", "--input", str(exact)) == (0, out, "")


def test_decompose_int_matrix_is_exact(tmp_path, capsys):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, _ = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"unit": {"re": ["1", "0"], "im": ["0", "0"]}}


@pytest.mark.parametrize(
    "blob",
    [{"entries": 5}, 5, [[1, 0], [0]], [1, 0], [["x"]], [[{"re": ["1", "0"]}, 0], [0, 1]],
     [[float("nan"), 0], [0, 0]], [[float("inf"), 0], [0, 1e308]], [[[0, float("-inf")], 0], [0, 0]]],
    ids=["entries-not-a-list", "not-a-list", "ragged", "rows-not-lists", "string-entry",
         "dict-entry-without-im", "nan", "infinity", "negative-infinity-in-a-pair"],
)
def test_decompose_malformed_matrix_exit_two(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decompose_deeply_nested_input_exit_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "[[1, 0], [0,", "{'entries': []}"], ids=["empty", "truncated", "single-quotes"])
def test_decompose_unparsable_input_names_the_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "decompose", "-K", "2", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


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


def test_word_level_commands_run_past_the_dimension_cap(capsys, monkeypatch):
    """Building, chains on basis spinors, metric tables and reflections never list dim-many entries."""
    monkeypatch.delenv("SGA_MAX_DIM", raising=False)
    code, out, _ = run(capsys, "eval", "-K", "64", f"e[{'u' * 32}]' g[1bar] e[u{'d' * 31}]")
    assert code == 0 and json.loads(out)["species"] == "scalar"
    assert Scalar.from_json(json.loads(out)["value"]) == -SQRT2
    code, out, _ = run(capsys, "tables", "--max-dim", "40", "--kind", "metric", "--check-period8")
    assert code == 0 and "(N range 1..40, computed exactly)" in out
    code, out, _ = run(capsys, "classify-reflection", "-K", "64", "--generators", "1,2")
    assert code == 0 and out == "neither\n"
    code, out, err = run(capsys, "eval", "-K", "64", "g[1] g[2]")  # an operator written out entry by entry
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "SGA_MAX_DIM" in err


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


def test_eval_orthonormal_tokens_follow_the_signature(capsys):
    """Spacelike output is that of gamma_plus(k) and gamma_minus(k), byte for byte; a timelike g[-k] squares to -1."""
    rep = build_representation(RepConfig(Signature(spacelike=4)))
    plus, minus = rep.gamma_plus, rep.gamma_minus
    for text, m in (("g[+1]", plus(1)), ("g[-2]", minus(2)), ("g[+2] g[-1] g[-2]", plus(2) @ minus(1) @ minus(2))):
        code, out, _ = run(capsys, "eval", "-K", "4", text)
        assert code == 0
        assert out == _json_dumps({"species": "multivector", "value": m.to_json()}) + "\n"
    code, out, _ = run(capsys, "eval", "-K", "3", "-M", "1", "g[-2] g[-2]")
    assert code == 0
    assert Matrix.from_json(json.loads(out)["value"]) == -Matrix.identity(4)


def test_eval_axis_tokens_follow_the_signature(capsys):
    """a[k] is rep.gamma(k): a spacelike axis squares to 1, a timelike one to -1, and a[N] reaches the projected final vector."""
    code, out, _ = run(capsys, "eval", "-K", "3", "a[3] a[3]")
    assert code == 0
    assert Matrix.from_json(json.loads(out)["value"]) == Matrix.identity(2)
    code, out, _ = run(capsys, "eval", "-K", "3", "-M", "1", "a[4] a[4]")
    assert code == 0
    assert Matrix.from_json(json.loads(out)["value"]) == -Matrix.identity(4)
    code, out, _ = run(capsys, "eval", "-K", "3", "a[3]")
    assert out == _json_dumps({"species": "multivector", "value": build_representation(spacelike=3).gamma(3).to_json()}) + "\n"


@pytest.mark.parametrize("token", ["a[0]", "a[4]", "a[-1]"])
def test_eval_axis_out_of_range_exit_two(capsys, token):
    code, out, err = run(capsys, "eval", "-K", "3", token)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert token in err and "out of range 1..3" in err


@pytest.mark.parametrize("token, plane", [("g[9]", 9), ("g[+0]", 0), ("g[3bar]", 3)])
def test_eval_plane_out_of_range_exit_two(capsys, token, plane):
    code, out, err = run(capsys, "eval", "-K", "4", token)
    assert code == 2 and out == ""
    assert err == f"error: {token}: plane {plane} out of range 1..2\n"


def test_eval_writes_the_one_spinor_of_dim_one(capsys):
    """With no planes the basis spinor's bitcode is empty: e[] is it, and <e|e> is the scalar 1."""
    code, out, _ = run(capsys, "eval", "-K", "1", "e[]' e[]")
    assert code == 0
    assert json.loads(out) == {"species": "scalar", "value": ONE.to_json()}
    code, out, err = run(capsys, "eval", "-K", "4", "e[]")
    assert code == 2 and out == ""
    assert err == "error: bitcode length 0 does not match 2 planes\n"


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


EXACT_COMMANDS = """
import contextlib
import io
import sys

import sga
from sga.cli import main

build, tables, matrix = sys.argv[1:]
assert not sga.verify_isomorphism(sga.build_representation(spacelike=8))["failures"]
assert main(["build", "-K", "5", "-o", build]) == 0
assert main(["tables", "--check-period8", "-o", tables]) == 0
assert main(["decompose", "-K", "2", "--input", matrix, "-o", build]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["tables", "--check-period8", "--max-dim", "9", "--km-min", "0", "--km-max", "8"]) == 0
    assert main(["build", "-K", "6"]) == 0
    assert main(["verify", "--suite", "traces-chains"]) == 0
print(sorted(name for name in ("numpy", "scipy") if name in sys.modules))
"""


def test_exact_commands_load_neither_numpy_nor_scipy(tmp_path):
    """numpy and scipy are imported by float work only, so exact commands start without them.

    The script runs the benchmark's exact paths (the round trip at N = 8,
    the tables, a build and the random chains) in a fresh process:
    importing numpy would add about 14 MB to its peak RSS.
    """
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([[1, {"re": ["1/2", "1"], "im": ["0", "-3"]}], [0.5, 0]]))
    argv = [str(tmp_path / "build.json"), str(tmp_path / "tables.md"), str(matrix)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", EXACT_COMMANDS, *argv], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
