import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from symrank import exactfield, linalg
from symrank.cli import UNECHOED, build_parser, main, report_json
from symrank.designs import paley, sylvester
from symrank.ensemble import matrix_from_tournament
from symrank.exactfield import QuadExt, square_free_part
from symrank.linalg import Matrix

from oracle import hadamard_csv, hadamard_rows

ROOT = Path(__file__).resolve().parent.parent


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


def test_design_rank_rejects_an_irrational_mu2_on_the_structured_route(capsys):
    # Fano's Gram 2I + J passes the closed form's check, yet a positive irrational
    # mu^2 still exits 2 before either route runs; the benchmark's
    # probe-fano-irrational-mu and its self-test expect exactly this
    code = main(
        ["design-rank", "--design", "fano", "--theta", "1/2", "--alpha", "1", "--beta", "1+1*sqrt(2)"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "1/2+1/2*sqrt(2) is irrational" in captured.err


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


def test_tournament_matrix_out_ranks_like_the_report(tmp_path, capsys):
    path = tmp_path / "t.csv"
    values = ",".join(["1", "1+1*sqrt(2)", "1/2"] * 4)
    code, out = run_cli(
        capsys, "tournament", "--n", "12", "--seed", "5", "--values", values,
        "--matrix-out", str(path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["matrix_out"] == str(path)
    code, out = run_cli(capsys, "rank", "--in", str(path))
    assert code == 0
    assert json.loads(out)["rank"] == report["rank"]


@pytest.mark.parametrize(
    "csv", ["1,-3*sqrt(2)\n-3*sqrt(2),18\n", "1/2*sqrt(5),5\n1,2*sqrt(5)\n"]
)
def test_rank_reads_pure_quadratic_cells(tmp_path, capsys, csv):
    path = tmp_path / "pure.csv"
    path.write_text(csv)
    code, out = run_cli(capsys, "rank", "--in", str(path))
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_tournament_values_typed_as_integers_rank_an_int_matrix(capsys, monkeypatch):
    import symrank.cli as cli

    built = []

    def recording(f, values, tournament):
        built.append(matrix_from_tournament(f, values, tournament))
        return built[-1]

    monkeypatch.setattr(cli, "matrix_from_tournament", recording)
    values = ",".join(str(v) for v in range(1, 41))
    code, out = run_cli(capsys, "tournament", "--n", "40", "--seed", "3", "--values", values)
    assert code == 0
    (matrix,) = built
    assert all(type(x) is int for x in matrix.entries())
    assert json.loads(out)["rank"] == matrix.rank()


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
    assert matrix.rows == 4
    rows = [matrix.row_list(i) for i in range(4)]
    assert all(rows[i][j] == rows[j][i] for i in range(4) for j in range(i))


def test_theorem1_verify_exhaustive_small(capsys):
    code, out = run_cli(
        capsys, "theorem1-verify", "--max-m", "2", "--max-n", "2", "--alpha", "1", "--beta", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["instances_checked"] == 2 + 4 + 4 + 16
    assert report["violations"] == 0


def test_theorem1_verify_exhaustive_at_the_entry_limit(capsys):
    # 1 x 25 entries is the limit; one graph per class makes its 2^25 graphs cheap
    code, out = run_cli(capsys, "theorem1-verify", "--max-m", "1", "--max-n", "25")
    assert code == 0
    assert json.loads(out)["instances_checked"] == (1 << 26) - 2


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


def test_hadamard_orders_at_the_cap_build_and_unused_flags_stay_unchecked(capsys):
    huge = str(10**20)
    for argv, order in (
        (["--construction", "sylvester", "--k", "10", "--q", huge], 1024),
        (["--construction", "paley", "--q", "1019", "--k", huge], 1020),
    ):
        code, out = run_cli(capsys, "hadamard", *argv)
        assert code == 0
        assert json.loads(out)["order"] == order
    for argv in (
        ["design", "--design", "fano", "--k", huge, "--q", huge],
        ["family-build", "--kind", "fano", "--order", huge],
    ):
        assert run_cli(capsys, *argv)[0] == 0


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


def test_readme_family_chain(tmp_path, capsys):
    # README: family-build --out, take "family" out of the report, family-check it
    report_path, family_path = tmp_path / "report.json", tmp_path / "family.json"
    code = main(["family-build", "--kind", "sunflower", "--n", "8", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    family_path.write_text(json.dumps(report["family"]))
    code, out = run_cli(capsys, "family-check", "--in", str(family_path), "--theta", "1/2")
    assert code == 0
    assert json.loads(out)["size"] == report["size"] == 10


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
    assert report["seed_size"] == 14
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


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "mu", "--theta", "1/2", "--alpha", "1", "--beta", "2", "--out", str(path)
    )
    assert code == 0
    assert json.loads(path.read_text())["mu_squared"] == "2"


def test_second_discriminant_is_rejected_at_its_cell(capsys, tmp_path):
    primes = [sympy.prevprime(10**12 - 10**7)]
    while len(primes) < 16:
        primes.append(sympy.prevprime(primes[-1]))
    path = tmp_path / "mixed.csv"
    path.write_text("".join(
        ",".join(f"1+1*sqrt({p})" for p in primes[row:row + 4]) + "\n" for row in range(0, 16, 4)
    ))
    misses = square_free_part.cache_info().misses
    assert main(["rank", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"row 1, column 2: matrix mixes sqrt({primes[0]}) and sqrt({primes[1]})" in err
    # the cells after the second discriminant are never parsed, so never factored
    assert square_free_part.cache_info().misses <= misses + 2


def test_integral_quadratic_csv_ranks_without_the_scalar_parser(capsys, tmp_path):
    rng = random.Random(23)

    def cell():
        a, b = rng.randint(-9, 9), rng.randint(-3, 3)
        return f"{a}{b:+d}*sqrt(5)" if b else str(a)

    path = tmp_path / "sqrt5.csv"
    path.write_text("".join(",".join(cell() for _ in range(12)) + "\n" for _ in range(12)))
    with (
        mock.patch.object(linalg, "parse_scalar", wraps=linalg.parse_scalar) as parse,
        mock.patch.object(exactfield, "square_free_part", wraps=square_free_part) as factor,
        mock.patch.object(QuadExt, "__init__", autospec=True, side_effect=QuadExt.__init__) as init,
    ):
        assert main(["rank", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 12
    assert parse.call_count == 0
    assert factor.call_count + init.call_count <= 1


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n", "a\"b\\c\nd", "\u00e9\u4e2d\U0001f600"])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner) | st.dictionaries(st.text() | st.sampled_from('"\\\n'), inner),
    max_leaves=40,
)


@given(_json_values)
def test_report_json_matches_indented_json_dumps(value):
    assert report_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["hadamard", "--construction", "paley", "--q", "19"],
        ["design", "--design", "paley-hadamard", "--q", "11"],
        ["family-build", "--kind", "fano"],
        ["theorem1-verify", "--samples", "3", "--max-m", "2", "--max-n", "2", "--seed", "1"],
    ],
)
def test_reports_are_indented_json_dumps(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, h",
    [(["--construction", "sylvester", "--k", str(k)], sylvester(k)) for k in (0, 1, 2, 3, 8)]
    + [(["--construction", "paley", "--q", str(q)], paley(q)) for q in (11, 19, 307)],
    ids=[f"order-{n}" for n in (1, 2, 4, 8, 256, 12, 20, 308)],
)
def test_hadamard_report_and_csv_match_the_oracle_text(tmp_path, capsys, argv, h):
    path = tmp_path / "h.csv"
    code, out = run_cli(capsys, "hadamard", *argv, "--matrix-out", str(path))
    assert code == 0
    rows = hadamard_rows(h)
    report = json.loads(out)
    assert len(report["rows"]) == h.order
    report["rows"] = rows
    # compared as lists of lines (split() inverts join()): pytest's diff of two
    # long strings takes minutes
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert out.split("\n") == expected.split("\n")
    assert path.read_bytes().decode().split("\n") == hadamard_csv(rows).split("\n")


def _fresh_interpreter(argv):
    result = subprocess.run(
        [sys.executable, "-m", "symrank", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return result.returncode, result.stdout


def test_one_parser_serves_every_call_in_a_process(capsys):
    calls = [
        ["mu", "--alpha", "1", "--beta", "2", "--table", "1", "2", "3", "5"],
        ["mu", "--alpha", "1", "--beta", "2"],  # --table must not carry over
        ["mu", "--table", "1", "2"],  # argparse rejects it: SystemExit(2)
        ["hadamard", "--construction", "paley", "--q", "7"],
        ["mu", "--theta", "1/3"],
    ]
    outputs = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outputs.append(capsys.readouterr().out)
        assert (code, outputs[-1]) == _fresh_interpreter(argv)
    assert json.loads(outputs[1])["config"]["table"] is None


# one small run of each subcommand: (arguments, files it reads: name -> text);
# "{dir}" is the work directory
_SMALL_RUNS = {
    "rank": (["--in", "{dir}/m.csv"], {"m.csv": "1,2\n2,4\n"}),
    "mu": ([], {}),
    "tournament": (["--n", "3", "--values", "1,2,3", "--matrix-out", "{dir}/t.csv"], {}),
    "bigraph": (
        ["--in", "{dir}/g.json", "--matrix-out", "{dir}/b.csv"],
        {"g.json": json.dumps({"m": 1, "n": 2, "edges": [[1, 2]]})},
    ),
    "theorem1-verify": (["--max-m", "1", "--max-n", "2"], {}),
    "theorem2": (["--theta", "1/3", "--n", "3"], {}),
    "hadamard": (["--construction", "sylvester", "--k", "1", "--matrix-out", "{dir}/h.csv"], {}),
    "design": ([], {}),
    "design-rank": ([], {}),
    "onebytwo": (["--k-minus-lambda", "2", "--bound", "10"], {}),
    "family-check": (["--in", "{dir}/f.json"], {"f.json": json.dumps({"n": 4, "sets": [[1, 2]]})}),
    "family-build": (["--kind", "fano"], {}),
    "family-search": (["--n", "6"], {}),
    "random-rank-stats": (["--n", "3", "--samples", "2"], {}),
}


def _subparsers() -> dict:
    parser = build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _config_of(tmp_path, command, extra=()):
    argv, files = _SMALL_RUNS[command]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "report.json"
    argv = [command, *(a.format(dir=tmp_path) for a in argv), *extra, "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["command"] == command
    return report["config"]


def test_every_subcommand_has_a_small_run():
    assert set(_SMALL_RUNS) == set(_subparsers())


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_config_echoes_every_flag_but_the_output_paths(tmp_path, command):
    dests = {a.dest for a in _subparsers()[command]._actions if a.dest != "help"}
    config = _config_of(tmp_path, command)
    assert set(config) == dests - UNECHOED
    # the two runs below differ in one flag, and so must their configs
    if "beta" in dests:
        assert _config_of(tmp_path, command, ["--beta", "3"]) != config
    if "table" in dests:
        assert _config_of(tmp_path, command, ["--table", "1", "2", "3", "4"]) != config


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
    with pytest.raises(SystemExit) as exc:
        main(["mu", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["family-search", "--n", "8", "--max-set-size", "4"])
    assert exc.value.code == 2


_BAD_GRAPH_EDGE = json.dumps({"m": 1, "n": 1, "edges": [[1, "a"]]})
_BAD_SET_POINT = json.dumps({"n": 4, "sets": [[1, "a"]]})
_SETS_NOT_A_LIST = json.dumps({"n": 4, "sets": 5})
_DEEP_JSON = "[" * 100_000  # deeper than the JSON parser's recursion limit


# (argv, the text of the file at {path} or None, what the message must name)
MALFORMED_INPUTS = [
    pytest.param(["mu", "--alpha", "1/0"], None, "1/0", id="mu-zero-denominator"),
    pytest.param(
        ["mu", "--alpha", "1+0*sqrt(4)"], None, "got 4 = 2**2 * 1", id="mu-zero-b-square-d"
    ),
    pytest.param(
        ["rank", "--in", "{path}"],
        "1,2\n3,1/0\n",
        "row 2, column 2",
        id="csv-zero-denominator",
    ),
    pytest.param(
        ["rank", "--in", "{path}"],
        "1,2\n3\n",
        "row 2 has length 1, expected 2",
        id="csv-ragged-row",
    ),
    pytest.param(
        ["rank", "--in", "{path}"],
        "1,2\n3,1_000\n",
        "row 2, column 2: invalid rational literal: '1_000'",
        id="csv-underscored-int",
    ),
    pytest.param(["bigraph", "--in", "{path}"], "[1, 2]", "[1, 2]", id="bigraph-not-object"),
    pytest.param(
        ["bigraph", "--in", "{path}"], _BAD_GRAPH_EDGE, "[1, 'a']", id="bigraph-bad-edge"
    ),
    pytest.param(
        ["bigraph", "--in", "{path}"],
        json.dumps({"m": 1, "n": 1}),
        "input has no key 'edges'",
        id="bigraph-missing-key",
    ),
    pytest.param(
        ["bigraph", "--in", "{path}"],
        json.dumps({"m": -1, "n": 2, "edges": []}),
        "part sizes must be nonnegative integers, got m=-1, n=2",
        id="bigraph-negative-part",
    ),
    pytest.param(
        ["bigraph", "--in", "{path}"],
        json.dumps({"m": 2, "n": 2, "edges": [[1, 5]]}),
        "edge [1, 5] out of range: the parts are 1..2 and 1..2",
        id="bigraph-edge-out-of-range",
    ),
    pytest.param(
        ["family-check", "--in", "{path}"], _BAD_SET_POINT, "[1, 'a']", id="check-bad-point"
    ),
    pytest.param(
        ["family-check", "--in", "{path}"], _SETS_NOT_A_LIST, "got 5", id="check-sets-int"
    ),
    pytest.param(
        ["family-check", "--in", "{path}"],
        json.dumps({"n": 3}),
        "input has no key 'sets'",
        id="check-missing-key",
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
        ["family-search", "--n", "8", "--seed-file", "{path}"],
        json.dumps({"sets": [[1, 2]]}),
        "input has no key 'n'",
        id="search-missing-key",
    ),
    *(
        pytest.param(
            ["family-search", "--n", "8", "--budget", budget],
            None,
            f"time budget must be a finite number of seconds > 0, got {named}",
            id=f"search-budget-{label}",
        )
        for budget, named, label in (
            ("nan", "nan", "nan"),
            ("inf", "inf", "inf"),
            ("0", "0.0", "zero"),
            ("-1", "-1.0", "negative"),
        )
    ),
    pytest.param(
        ["theorem1-verify", "--samples", "3", "--max-m", "0"], None, "--max-m", id="max-m-0"
    ),
    pytest.param(
        ["theorem1-verify", "--samples", "3", "--max-n", "0"], None, "--max-n", id="max-n-0"
    ),
    *(
        pytest.param(
            ["theorem1-verify", "--samples", "1", flag, value],
            None,
            f"{flag} {value} exceeds the size limit of 1024",
            id=f"sampled-{flag[2:]}-{label}",
        )
        for flag in ("--max-m", "--max-n")
        for value, label in (("1025", "over-cap"), (str(10**20), "huge"))
    ),
    pytest.param(
        ["theorem1-verify", "--max-m", "0", "--max-n", "7"],
        None,
        "--max-m must be >= 1, got 0",
        id="exhaustive-max-m-0",
    ),
    pytest.param(
        ["theorem1-verify", "--max-n", "0"],
        None,
        "--max-n must be >= 1, got 0",
        id="exhaustive-max-n-0",
    ),
    pytest.param(
        ["theorem1-verify", "--max-m", "-6", "--max-n", "-6"],
        None,
        "--max-m must be >= 1, got -6",
        id="exhaustive-negative-bounds",
    ),
    pytest.param(
        ["mu", "--alpha", "1", "--beta", "1", "--table", "1", "2", "3", "4"],
        None,
        "table pair needs alpha != beta, got 1 for both",
        id="mu-table-equal-values",
    ),
    pytest.param(
        ["design-rank", "--alpha", "1", "--beta", "1", "--table", "1", "2", "3", "4"],
        None,
        "table pair needs alpha != beta, got 1 for both",
        id="design-rank-table-equal-values",
    ),
    pytest.param(
        ["theorem1-verify", "--alpha", "1", "--beta", "1", "--table", "1", "2", "3", "4"],
        None,
        "table pair needs alpha != beta, got 1 for both",
        id="verify-table-equal-values",
    ),
    pytest.param(
        ["design-rank", "--alpha", "1", "--beta", "1"],
        None,
        "f(alpha, beta) == f(beta, alpha) == 1 at alpha = 1, beta = 1",
        id="design-rank-equal-values",
    ),
    pytest.param(
        ["design-rank", "--alpha", "0", "--beta", "1"],
        None,
        "f(alpha, alpha) == 0 at alpha = 0",
        id="design-rank-zero-diagonal",
    ),
    pytest.param(
        ["theorem1-verify", "--alpha", "2", "--beta", "2", "--max-m", "2", "--max-n", "2"],
        None,
        "f(alpha, beta) == f(beta, alpha) == 2 at alpha = 2, beta = 2",
        id="verify-equal-values",
    ),
    pytest.param(
        ["theorem1-verify", "--max-m", "6", "--max-n", "5"],
        None,
        "--max-m 6 x --max-n 5 exceeds the exhaustive limit of 25",
        id="exhaustive-6x5",
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
    *(
        pytest.param(argv, None, named, id=name)
        for name, argv, named in (
            ("sylvester-k-negative", ["hadamard", "--construction", "sylvester", "--k", "-1"],
             "k must be >= 0, got -1"),
            ("paley-not-prime", ["hadamard", "--construction", "paley", "--q", "9"],
             "q = 9 is not prime"),
            ("paley-1-mod-4", ["hadamard", "--construction", "paley", "--q", "5"],
             "q = 5 is not congruent to 3 mod 4"),
            ("design-order-4", ["design", "--design", "sylvester-hadamard", "--k", "2"],
             "order 4 does not give a nondegenerate design"),
            ("onebytwo-k-minus-lambda-0", ["onebytwo", "--k-minus-lambda", "0"],
             "k - lambda must be >= 1, got 0"),
            ("onebytwo-bound-1", ["onebytwo", "--k-minus-lambda", "2", "--bound", "1"],
             "bound must be >= 2, got 1"),
            ("mu-theta-1", ["mu", "--theta", "1"], "theta must lie in (0, 1), got 1"),
            ("tournament-n-0", ["tournament", "--n", "0"], "n must be >= 1, got 0"),
            ("tournament-short-values", ["tournament", "--n", "3", "--values", "1,2"],
             "sequence length 2 != tournament size 3"),
            ("mu-discriminant-1", ["mu", "--alpha", "1+1*sqrt(1)"],
             "discriminant must be >= 2, got 1"),
            # f(x, y) = x + y/3 adds a sqrt(2) and a sqrt(3) value
            ("tournament-mixed-sum",
             ["tournament", "--n", "3", "--theta", "1/3", "--values", "1+1*sqrt(2),1+1*sqrt(3),1"],
             "cannot mix sqrt(2) and sqrt(3) elements"),
            # f(x, y) = x keeps them apart until the rank meets both
            ("tournament-mixed-rank",
             ["tournament", "--n", "3", "--theta", "1/2", "--values", "1+1*sqrt(2),1+1*sqrt(3),1"],
             "matrix mixes sqrt(2) and sqrt(3) entries"),
            ("theorem2-n-0", ["theorem2", "--theta", "1/3", "--n", "0"], "n must be >= 1, got 0"),
            ("theorem2-theta-0", ["theorem2", "--theta", "0", "--n", "3"],
             "theta must lie in (0, 1), got 0"),
            ("build-sunflower-odd", ["family-build", "--kind", "sunflower", "--n", "5"],
             "n must be even and >= 4, got 5"),
            ("build-hadamard-order-4", ["family-build", "--kind", "hadamard", "--order", "4"],
             "order 4 is unsupported"),
            # a Hadamard builder caps its order 2^k, q + 1 or --order at 1024 first
            ("sylvester-k-11", ["hadamard", "--construction", "sylvester", "--k", "11"],
             "--k 11 exceeds the size limit of 10"),
            ("paley-q-1031", ["hadamard", "--construction", "paley", "--q", "1031"],
             "--q 1031 exceeds the size limit of 1023"),
            ("design-k-11", ["design", "--design", "sylvester-hadamard", "--k", "11"],
             "--k 11 exceeds the size limit of 10"),
            ("design-rank-q-1031", ["design-rank", "--design", "paley-hadamard", "--q", "1031"],
             "--q 1031 exceeds the size limit of 1023"),
            ("build-order-2048", ["family-build", "--kind", "hadamard", "--order", "2048"],
             "--order 2048 exceeds the size limit of 1024"),
            ("search-order-2048",
             ["family-search", "--n", "8", "--seed-kind", "hadamard", "--order", "2048"],
             "--order 2048 exceeds the size limit of 1024"),
            *(
                (f"{name}-huge", argv + [flag, str(10**20)],
                 f"{flag} {10**20} exceeds the size limit of {cap}")
                for name, argv, flag, cap in (
                    ("sylvester-k", ["hadamard", "--construction", "sylvester"], "--k", 10),
                    ("paley-q", ["hadamard", "--construction", "paley"], "--q", 1023),
                    ("build-order", ["family-build", "--kind", "hadamard"], "--order", 1024),
                )
            ),
            # the search's cap binds before any seed is built
            ("search-n-22", ["family-search", "--n", "22"],
             "--n 22 exceeds the size limit of 20"),
            *(
                (f"{argv[0]}-n-huge", argv + ["--n", str(10**20)],
                 f"--n {10**20} exceeds the size limit of {cap}")
                for argv, cap in (
                    (["tournament"], 1024),
                    (["random-rank-stats"], 1024),
                    (["theorem2", "--theta", "1/3"], 1024),
                    (["family-build", "--kind", "sunflower"], 1024),
                    (["family-search"], 20),
                )
            ),
        )
    ),
    *(
        pytest.param(argv, text, named, id=name)
        for name, argv, text, named in (
            ("bigraph-edges-int", ["bigraph", "--in", "{path}"],
             json.dumps({"m": 1, "n": 1, "edges": 5}), "edges must be a list, got 5"),
            ("bigraph-part-huge", ["bigraph", "--in", "{path}"],
             json.dumps({"m": 10**20, "n": 1, "edges": []}),
             f"part sizes must be at most 1024, got m={10**20}, n=1"),
            # the message starts with the file's path, which ends in "input"
            ("check-n-huge", ["family-check", "--in", "{path}"],
             json.dumps({"n": 10**20, "sets": [[10**20]]}),
             f"ground set size must be at most 1024, got n={10**20}"),
            ("search-seed-n-huge", ["family-search", "--n", "8", "--seed-file", "{path}"],
             json.dumps({"n": 10**9, "sets": [[10**9]]}),
             f"ground set size must be at most 1024, got n={10**9}"),
            ("check-json-syntax", ["family-check", "--in", "{path}"], '{"n": 4, "sets": [[1, 2]',
             "input: Expecting ',' delimiter: line 1 column 25"),
            # json.loads raises a plain ValueError for an integer of more than 4300 digits
            ("check-n-too-many-digits", ["family-check", "--in", "{path}"],
             '{"n": ' + "9" * 5000 + ', "sets": []}', "input: Exceeds the limit (4300 digits)"),
            # the counts are checked before any cell is parsed, and "x" does not parse
            ("csv-rows-over-cap", ["rank", "--in", "{path}"], "x\n" * 1025,
             "1025 rows exceed the size limit of 1024"),
            ("csv-columns-over-cap", ["rank", "--in", "{path}"], "1,2\n" + ",".join("x" * 1025),
             "1025 columns exceed the size limit of 1024"),
            ("check-point-outside", ["family-check", "--in", "{path}"],
             json.dumps({"n": 4, "sets": [[1, 5]]}), "set [1, 5]: point 5 outside [1..4]"),
            # 1000036000099 = 1000003 * 1000033, both factors beyond the trial bound 10^6
            ("csv-uncertifiable-discriminant", ["rank", "--in", "{path}"],
             "1,1+1*sqrt(1000036000099)\n",
             "row 1, column 2: cannot certify square-free part of 1000036000099"),
            ("csv-mixed-discriminants", ["rank", "--in", "{path}"],
             "1,1+1*sqrt(2)\n1+1*sqrt(3),1\n",
             "row 2, column 1: matrix mixes sqrt(2) and sqrt(3) entries"),
            # a cell with a rational part goes through parse_scalar, then the same check
            ("csv-mixed-discriminants-parsed-cell", ["rank", "--in", "{path}"],
             "1,1+1*sqrt(2)\n1/2+1*sqrt(3),1\n",
             "row 2, column 1: matrix mixes sqrt(2) and sqrt(3) entries"),
            ("check-n-0", ["family-check", "--in", "{path}"],
             json.dumps({"n": 0, "sets": []}), "ground_n must be an integer >= 1, got 0"),
            ("check-empty-set", ["family-check", "--in", "{path}"],
             json.dumps({"n": 4, "sets": [[]]}), "set [] is empty"),
            ("check-duplicate-set", ["family-check", "--in", "{path}"],
             json.dumps({"n": 4, "sets": [[1, 2], [2, 1]]}), "duplicate set [1, 2]"),
            ("check-set-not-a-list", ["family-check", "--in", "{path}"],
             json.dumps({"n": 4, "sets": [5]}), "set 5 is not a list of points"),
            ("check-theta-2", ["family-check", "--in", "{path}", "--theta", "2"],
             json.dumps({"n": 4, "sets": [[1, 2]]}), "theta must lie in (0, 1), got 2"),
            ("search-seed-outside", ["family-search", "--n", "6", "--seed-file", "{path}"],
             json.dumps({"n": 8, "sets": [[7, 8]]}), "set [7, 8] has points outside [1..6]"),
            ("search-seed-not-closed", ["family-search", "--n", "6", "--seed-file", "{path}"],
             json.dumps({"n": 6, "sets": [[1, 2], [3, 4, 5, 6]]}),
             "seed is not bisection-closed: [1, 2] vs [3, 4, 5, 6]"),
            ("search-candidate-cap", ["family-search", "--n", "16", "--seed-file", "{path}"],
             json.dumps({"n": 16, "sets": [[1, 2]]}),
             "16475 candidate sets exceed the cap 5000"),
            ("bigraph-deep", ["bigraph", "--in", "{path}"], _DEEP_JSON,
             "input nests JSON deeper than the recursion limit"),
            ("check-deep", ["family-check", "--in", "{path}"], _DEEP_JSON,
             "input nests JSON deeper than the recursion limit"),
            ("search-deep", ["family-search", "--n", "8", "--seed-file", "{path}"], _DEEP_JSON,
             "input nests JSON deeper than the recursion limit"),
        )
    ),
]


@pytest.mark.parametrize("argv, infile, named", MALFORMED_INPUTS)
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


def test_theorem1_verify_sampled_at_the_size_cap(capsys):
    code, out = run_cli(
        capsys, "theorem1-verify", "--samples", "1", "--max-m", "1024", "--max-n", "2"
    )
    assert code == 0
    assert json.loads(out)["instances_checked"] == 1


def test_theorem1_verify_one_vertex_parts(capsys):
    # K_{1,1} with a zero cross value has rank 0; the sandwich floor must allow it
    code, out = run_cli(
        capsys, "theorem1-verify", "--samples", "50", "--max-m", "1", "--max-n", "1", "--seed", "0"
    )
    assert code == 0
    assert json.loads(out)["instances_checked"] == 50
