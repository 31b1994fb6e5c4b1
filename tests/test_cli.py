import hashlib
import json
import subprocess
import sys

import pytest

from parinv.cli import main
from parinv.linalg import Matrix, matrix_to_json
from parinv.generators_gl import nonvanishing_witness
from parinv.sampling import Rng, sample_group_point
from parinv.shapes import IndexPair, make_shape


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_gl5(capsys):
    code, out, _ = run_cli(capsys, "describe", "--group", "gl", "--n", "5", "--parts", "1,2,2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 17
    assert lines[0] == {"pair": [5, 1], "kind": "minor", "x_rows": [5], "adj_rows": [], "cols": [1]}
    assert lines[-1]["pair"] == [1, 5]
    assert all(line["kind"] in ("minor", "stacked") for line in lines)


def test_describe_sp8(capsys):
    code, out, _ = run_cli(capsys, "describe", "--group", "sp", "--n", "8", "--parts", "1,2,2,2,1")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 19 + 1 + 4
    m0 = lines[19]
    assert m0["name"] == "M0" and m0["x_rows"] == [6, 7, 8] and m0["cols"] == [1, 2, 3]
    assert all(line["kind"] == "ratio" for line in lines[20:])


def test_describe_sl2_drops_corner(capsys):
    code, out, _ = run_cli(capsys, "describe", "--group", "sl", "--n", "2", "--parts", "1,1")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert [line["pair"] for line in lines] == [[2, 1], [2, 2]]


def test_describe_invalid_shape(capsys):
    code, _, err = run_cli(capsys, "describe", "--group", "sp", "--n", "7", "--parts", "1,2,1,2,1")
    assert code == 2
    assert "error" in err


def test_eval_witness_matrix(tmp_path, capsys):
    shape = make_shape("gl", 5, (1, 2, 2))
    witness = nonvanishing_witness(shape, IndexPair(4, 4))
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(matrix_to_json(witness)))
    code, out, _ = run_cli(
        capsys, "eval", "--group", "gl", "--n", "5", "--parts", "1,2,2", "--matrix", str(path)
    )
    assert code == 0
    values = json.loads(out.strip())
    assert values["(4,4)"] == "1"


def test_eval_identity(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(matrix_to_json(Matrix.identity(5))))
    code, out, _ = run_cli(
        capsys, "eval", "--group", "gl", "--n", "5", "--parts", "1,2,2", "--matrix", str(path)
    )
    assert code == 0
    assert json.loads(out.strip())["(1,5)"] == "1"


def test_eval_osp_identity_has_null_ratios(tmp_path, capsys):
    path = tmp_path / "e4.json"
    path.write_text(json.dumps(matrix_to_json(Matrix.identity(4))))
    code, out, err = run_cli(
        capsys, "eval", "--group", "sp", "--n", "4", "--parts", "1,2,1", "--matrix", str(path)
    )
    assert code == 0
    values = json.loads(out.strip())
    assert values["M0"] == "0"
    assert values["P(2,2)"] is None
    assert "(4,1)" in values  # J values still returned
    assert "ratio undefined" in err


def test_eval_rejects_non_group_matrix_for_osp(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_json(Matrix.identity(4) * 2)))
    code, _, err = run_cli(
        capsys, "eval", "--group", "sp", "--n", "4", "--parts", "1,2,1", "--matrix", str(path)
    )
    assert code == 2
    assert "form equation" in err


def test_eval_size_mismatch(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(matrix_to_json(Matrix.identity(3))))
    code, _, err = run_cli(
        capsys, "eval", "--group", "gl", "--n", "5", "--parts", "1,2,2", "--matrix", str(path)
    )
    assert code == 2


def test_eval_bad_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    for text in ("not json", json.dumps([["1/0", "0"], ["0", "1"]])):
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "eval", "--group", "gl", "--n", "2", "--parts", "1,1", "--matrix", str(path)
        )
        assert code == 2
        assert out == "" and "cannot read matrix file" in err


# sha256 of the complete stdout, recorded before describe and eval moved
# onto one generator system; the eval point is a fixed sampled group point
PINNED_OUTPUT = {
    ("gl", 5, "1,2,2"): (
        "103d3714fd1cbe50ecf5b0aabf2e6cddb319d56ef91173d03219987b95401a5f",
        "52b4fcae7bd23e099c96812fa71bc60c816227c6b728c20bcbcfb2ea3bd3334e",
    ),
    ("sl", 5, "1,2,2"): (
        "438178522f42a6ea9f7173ab533b7c41cc637c890c4f1b6cc36d512d37b73f5e",
        "61a5d4da9a7727b85386e62a4b7b3804aa6a33b715007e92390bb45f37f66826",
    ),
    ("o", 5, "1,3,1"): (
        "99e69f70f08ed1a850f437ffd076b57743a038b5b0514f6756da7b807e9c8ebb",
        "3e392fb8429b575d5e481e8f6304d420eca28073418c14f7d949ecb693304423",
    ),
    ("sp", 8, "1,2,2,2,1"): (
        "fa44f39690185ee293821e220e9deec51615412b1b9ce8ae50437edf2ae7b9ad",
        "c30e9c026efeb3bafcd255202c5b56955455dc1f3e5db626ce102ed4036aa014",
    ),
}


@pytest.mark.parametrize("kind,n,parts", sorted(PINNED_OUTPUT))
def test_describe_and_eval_output_is_pinned(kind, n, parts, tmp_path, capsys):
    shape_args = ["--group", kind, "--n", str(n), "--parts", parts]
    point = sample_group_point(make_shape(kind, n, map(int, parts.split(","))), Rng(11), 5)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(matrix_to_json(point.matrix)))
    code, described, _ = run_cli(capsys, "describe", *shape_args)
    assert code == 0
    code, evaluated, _ = run_cli(capsys, "eval", *shape_args, "--matrix", str(path))
    assert code == 0
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in (described, evaluated))
    assert digests == PINNED_OUTPUT[kind, n, parts]


def test_verify_small_run_deterministic_and_out_file(tmp_path, capsys):
    args = [
        "verify", "--group", "gl", "--n", "4", "--parts", "2,2",
        "--seed", "3", "--trials", "5", "--bound", "6",
    ]
    out_path = tmp_path / "report.json"
    code1, out1, err1 = run_cli(capsys, *args, "--out", str(out_path))
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical stdout
    assert out_path.read_text() == out1
    report = json.loads(out1)
    assert report["pass"] is True
    assert "duration_ms" not in out1
    assert "duration_ms" in err1  # measured time goes to stderr


def test_verify_inject_mutation_exits_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--group", "gl", "--n", "4", "--parts", "2,2",
        "--seed", "3", "--trials", "25", "--bound", "6", "--inject-mutation",
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    bad = [c for c in report["checks"] if not c["pass"]]
    assert bad and "counterexample" in bad[0]


def test_orbit_dim_command(capsys):
    code, out, _ = run_cli(
        capsys, "orbit-dim", "--group", "gl", "--n", "5", "--parts", "1,2,2", "--seed", "2"
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload == {"orbit_dims": [8, 8, 8], "dim_u": 8, "points": 3}


def test_sample_commands(capsys):
    for what in ("group", "unipotent", "slice-s", "slice-s0"):
        code, out, _ = run_cli(
            capsys,
            "sample", "--group", "gl", "--n", "5", "--parts", "1,2,2",
            "--seed", "4", "--trials", "2", "--what", what,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        rows = json.loads(lines[0])
        assert len(rows) == 5 and all(isinstance(x, str) for row in rows for x in row)
    code, out, _ = run_cli(
        capsys,
        "sample", "--group", "sp", "--n", "4", "--parts", "1,2,1",
        "--seed", "4", "--trials", "1", "--what", "slice-scirc",
    )
    assert code == 0


def test_sample_determinism(capsys):
    args = ["sample", "--group", "o", "--n", "6", "--parts", "2,2,2", "--seed", "9", "--trials", "3"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_slice_scirc_rejected_for_gl(capsys):
    code, _, err = run_cli(
        capsys,
        "sample", "--group", "gl", "--n", "5", "--parts", "1,2,2", "--what", "slice-scirc",
    )
    assert code == 2


def test_unknown_flag_is_rejected():
    shape = ["--group", "gl", "--n", "2", "--parts", "2"]
    bad = [
        ["describe", *shape, "--frobnicate"],
        # --bound, --trials and --points are >= 1; --seed is a U64
        ["verify", *shape, "--bound", "0"],
        ["sample", *shape, "--bound", "-3"],
        ["selftest", "--bound", "0"],
        ["verify", *shape, "--trials", "-1"],
        ["sample", *shape, "--trials", "0"],
        ["orbit-dim", *shape, "--points", "-2"],
        ["sample", *shape, "--seed", "-1"],
        ["sample", *shape, "--seed", str(1 << 64)],
        ["sample", *shape, "--seed", "ten"],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert main(["sample", *shape, "--seed", str((1 << 64) - 1), "--trials", "1"]) == 0


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "parinv.cli", "describe", "--group", "gl", "--n", "2", "--parts", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) == 4
