import json

import pytest

from symrank.cli import main
from symrank.linalg import Matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rank_zero_matrix(tmp_path, capsys):
    path = tmp_path / "zero5.csv"
    path.write_text(Matrix(5, 5, [0] * 25).to_csv())
    code, out = run_cli(capsys, "rank", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 0 and report["rows"] == 5


def test_mu_report(capsys):
    code, out = run_cli(capsys, "mu", "--theta", "1/2", "--alpha", "1", "--beta", "2")
    assert code == 0
    assert json.loads(out)["mu_squared"] == "2"


def test_theorem2_reports(capsys):
    code, out = run_cli(capsys, "theorem2", "--theta", "1/2", "--n", "10", "--sign", "+")
    assert code == 0
    report = json.loads(out)
    assert report["rank_at_most_n_plus_3"] is True
    assert report["report"]["exact_rank"] <= 13
    assert report["beta"] == "3/2+1/2*sqrt(5)"


def test_design_rank_fano(capsys):
    code, out = run_cli(capsys, "design-rank", "--design", "fano", "--alpha", "1", "--beta", "2")
    assert code == 0
    report = json.loads(out)
    assert report["report"]["exact_rank"] <= 10
    assert report["low_rank_branch"] is True


def test_tournament_determinism(capsys):
    code1, out1 = run_cli(capsys, "tournament", "--n", "10", "--seed", "7")
    code2, out2 = run_cli(capsys, "tournament", "--n", "10", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3 = run_cli(capsys, "tournament", "--n", "10", "--seed", "8")
    assert out3 != out1


def test_tournament_with_values(capsys):
    code, out = run_cli(
        capsys, "tournament", "--n", "6", "--seed", "1", "--values", "1,2,3,4,5,6"
    )
    assert code == 0
    assert json.loads(out)["rank"] >= 5


def test_bigraph_matrix_output(tmp_path, capsys):
    graph = {"m": 2, "n": 2, "edges": [[1, 1], [2, 2]]}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph))
    mpath = tmp_path / "m.csv"
    code, out = run_cli(
        capsys,
        "bigraph",
        "--in",
        str(gpath),
        "--theta",
        "1/2",
        "--alpha",
        "1",
        "--beta",
        "2",
        "--matrix-out",
        str(mpath),
    )
    assert code == 0
    matrix = Matrix.from_csv(mpath.read_text())
    assert matrix.rows == 4 and matrix.is_symmetric()


def test_theorem1_verify_exhaustive_small(capsys):
    code, out = run_cli(
        capsys, "theorem1-verify", "--max-m", "2", "--max-n", "2", "--alpha", "1", "--beta", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["instances_checked"] == 2 + 4 + 4 + 16
    assert report["violations"] == 0


def test_theorem1_verify_sampled(capsys):
    code, out = run_cli(
        capsys,
        "theorem1-verify",
        "--samples",
        "25",
        "--max-m",
        "6",
        "--max-n",
        "6",
        "--seed",
        "3",
    )
    assert code == 0
    assert json.loads(out)["instances_checked"] == 25


def test_hadamard_and_design(capsys, tmp_path):
    path = tmp_path / "h.csv"
    code, out = run_cli(
        capsys, "hadamard", "--construction", "paley", "--q", "7", "--matrix-out", str(path)
    )
    assert code == 0
    assert json.loads(out)["order"] == 8
    assert path.read_text().count("\n") == 8

    code, out = run_cli(capsys, "design", "--design", "paley-hadamard", "--q", "23")
    assert code == 0
    design = json.loads(out)["design"]
    assert design["v"] == 23 and design["k"] == 11 and design["lambda"] == 5


def test_onebytwo(capsys):
    code, out = run_cli(capsys, "onebytwo", "--k-minus-lambda", "6", "--bound", "100")
    assert code == 0
    assert json.loads(out)["solutions"] == [[2, 3]]


def test_family_roundtrip(tmp_path, capsys):
    code, out = run_cli(capsys, "family-build", "--kind", "fano")
    assert code == 0
    family = json.loads(out)["family"]
    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps(family))
    code, out = run_cli(capsys, "family-check", "--in", str(fpath), "--theta", "1/2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_family_check_failure_exits_one(tmp_path, capsys):
    fpath = tmp_path / "bad.json"
    fpath.write_text(json.dumps({"n": 4, "sets": [[1, 2], [3, 4]]}))
    code, out = run_cli(capsys, "family-check", "--in", str(fpath))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_family_build_hadamard_and_design_sylvester(capsys):
    code, out = run_cli(capsys, "family-build", "--kind", "hadamard", "--order", "16")
    assert code == 0
    assert json.loads(out)["size"] == 22

    code, out = run_cli(capsys, "design", "--design", "sylvester-hadamard", "--k", "3")
    assert code == 0
    design = json.loads(out)["design"]
    assert (design["v"], design["k"], design["lambda"]) == (7, 3, 1)


def test_family_search_with_seed_file(tmp_path, capsys):
    code, out = run_cli(capsys, "family-build", "--kind", "sunflower", "--n", "8")
    assert code == 0
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(json.loads(out)["family"]))
    code, out = run_cli(
        capsys, "family-search", "--n", "8", "--seed-file", str(seed_path), "--budget", "30"
    )
    assert code == 0
    assert json.loads(out)["size"] >= 14


def test_family_search(capsys):
    code, out = run_cli(
        capsys,
        "family-search",
        "--n",
        "10",
        "--seed-kind",
        "fano",
        "--budget",
        "20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["size"] > 13
    assert report["beats_bound"] is True


def test_random_rank_stats(capsys):
    code, out = run_cli(
        capsys,
        "random-rank-stats",
        "--n",
        "12",
        "--samples",
        "10",
        "--seed",
        "5",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["ranks"]) == 10


def test_out_file_and_csv_format(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "mu", "--theta", "1/2", "--alpha", "1", "--beta", "2", "--out", str(path)
    )
    assert code == 0
    assert json.loads(path.read_text())["mu_squared"] == "2"
    code, out = run_cli(capsys, "mu", "--theta", "1/2", "--alpha", "1", "--beta", "2", "--format", "csv")
    assert code == 0
    assert "mu_squared,2" in out


def test_usage_errors_exit_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--bogus-flag"])
    assert exc.value.code == 2
    code = main(["rank", "--in", str(tmp_path / "missing.csv")])
    assert code == 2
    code = main(["design-rank", "--design", "fano", "--alpha", "1", "--beta", "not-a-number"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["random-rank-stats", "--threads", "2"])
    assert exc.value.code == 2


_BAD_GRAPH_EDGE = json.dumps({"m": 1, "n": 1, "edges": [[1, "a"]]})
_BAD_SET_POINT = json.dumps({"n": 4, "sets": [[1, "a"]]})
_SETS_NOT_A_LIST = json.dumps({"n": 4, "sets": 5})


@pytest.mark.parametrize(
    "argv, infile, named",
    [
        pytest.param(["mu", "--alpha", "1/0"], None, "1/0", id="mu-zero-denominator"),
        pytest.param(
            ["rank", "--in", "{path}"],
            "1,2\n3,1/0\n",
            "row 2, column 2",
            id="csv-zero-denominator",
        ),
        pytest.param(["bigraph", "--in", "{path}"], "[1, 2]", "[1, 2]", id="bigraph-not-object"),
        pytest.param(
            ["bigraph", "--in", "{path}"], _BAD_GRAPH_EDGE, "[1, 'a']", id="bigraph-bad-edge"
        ),
        pytest.param(
            ["family-check", "--in", "{path}"], _BAD_SET_POINT, "[1, 'a']", id="check-bad-point"
        ),
        pytest.param(
            ["family-check", "--in", "{path}"], _SETS_NOT_A_LIST, "got 5", id="check-sets-int"
        ),
        pytest.param(
            ["family-search", "--n", "8", "--seed-file", "{path}"],
            _BAD_SET_POINT,
            "[1, 'a']",
            id="search-bad-point",
        ),
        pytest.param(
            ["family-search", "--n", "8", "--seed-file", "{path}"],
            _SETS_NOT_A_LIST,
            "got 5",
            id="search-sets-int",
        ),
        pytest.param(
            ["theorem1-verify", "--samples", "3", "--max-m", "0"], None, "--max-m", id="max-m-0"
        ),
        pytest.param(
            ["theorem1-verify", "--samples", "3", "--max-n", "0"], None, "--max-n", id="max-n-0"
        ),
        pytest.param(
            ["theorem1-verify", "--samples", "-3"],
            None,
            "--samples must be >= 0 (0 means exhaustive), got -3",
            id="verify-samples-negative",
        ),
        pytest.param(
            ["random-rank-stats", "--n", "4", "--samples", "0"],
            None,
            "--samples must be >= 1, got 0",
            id="stats-samples-0",
        ),
        pytest.param(
            ["random-rank-stats", "--n", "4", "--samples", "-2"],
            None,
            "--samples must be >= 1, got -2",
            id="stats-samples-negative",
        ),
        pytest.param(
            ["family-build", "--kind", "hadamard", "--order", "0"],
            None,
            "--order must be a power of two, got 0",
            id="build-order-0",
        ),
        pytest.param(
            ["family-build", "--kind", "hadamard", "--order", "12"],
            None,
            "--order must be a power of two, got 12",
            id="build-order-12",
        ),
        pytest.param(
            ["family-build", "--kind", "hadamard", "--order", "-4"],
            None,
            "--order must be a power of two, got -4",
            id="build-order-negative",
        ),
        pytest.param(
            ["family-search", "--n", "8", "--seed-kind", "hadamard", "--order", "0"],
            None,
            "--order must be a power of two, got 0",
            id="search-order-0",
        ),
    ],
)
def test_malformed_input_exits_two_naming_the_value(tmp_path, capsys, argv, infile, named):
    path = tmp_path / "input"
    if infile is not None:
        path.write_text(infile)
    code = main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err


def test_identical_invocations_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert (
            main(
                [
                    "theorem1-verify",
                    "--samples",
                    "10",
                    "--max-m",
                    "5",
                    "--max-n",
                    "5",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_theorem1_verify_one_vertex_parts(capsys):
    # K_{1,1} with a zero cross value has rank 0; the sandwich floor must allow it
    code, out = run_cli(
        capsys, "theorem1-verify", "--samples", "50", "--max-m", "1", "--max-n", "1", "--seed", "0"
    )
    assert code == 0
    assert json.loads(out)["instances_checked"] == 50
