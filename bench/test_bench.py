"""Self-test of the benchmark: every workload at a tiny size, and its checks.

Run from the repository root with `python3 -m pytest bench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import batches
import run
from checks import design_multiplicity, linear_values, matched_root, mu_squared
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROBES = {"probe-k11-zero-cross", "probe-fano-irrational-mu"}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return {
        (workload, trace): run.run(workload, 1, 0, trace, tmp_path_factory.mktemp(workload), tiny=True)
        for workload in batches.WORKLOADS
        for trace in (False, True)
    }


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(batches.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", batches.WORKLOADS)
@pytest.mark.parametrize("trace, spec_key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(results, workload, trace, spec_key):
    result, _ = results[workload, trace]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC[spec_key]
    }
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
    assert result["correct"] is True
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", batches.WORKLOADS)
def test_only_the_known_defect_probes_fail(results, workload):
    _, failures = results[workload, False]
    failed = {name for name, _ in failures}
    assert failed <= PROBES


def test_traced_run_times_the_layers_of_its_workload(results):
    layers = {w: results[w, True][0]["metrics"] for w in batches.WORKLOADS}
    assert layers["small"]["spectra.rank_sandwich.calls"]["value"] > 0
    assert layers["small"]["ensemble.pair_value.calls"]["value"] > 0
    assert layers["large"]["ensemble.random_tournament.s"]["value"] > 0
    assert layers["large"]["linalg.rank.int_s"]["value"] > 0
    assert layers["large"]["linalg.rank.quad_s"]["value"] > 0
    assert layers["large"]["exactfield.quadext_new.calls"]["value"] > 0
    assert layers["small"]["families.search_bisection_closed.calls"]["value"] > 0
    assert layers["small"]["designs.hadamard_validate.calls"]["value"] > 0
    assert layers["small"]["cli.out_bytes"]["value"] > 0


def _run_tampered(monkeypatch, tmp_path, workload, target, tamper):
    """One tiny batch in which the report of command `target` is altered by `tamper`."""
    cli, batch, _ = run.set_up(workload, 1, tmp_path, tiny=True)
    argv = next(c.argv for c in batch.commands if c.name == target)
    real = run.run_command

    def tampered(cli_module, args):
        outcome = real(cli_module, args)
        if args == argv:
            report = json.loads(outcome.stdout)
            tamper(report)
            outcome.stdout = json.dumps(report)
        return outcome

    monkeypatch.setattr(run, "run_command", tampered)
    ledger = run.Ledger()
    run.run_batch(cli, batch, ledger)
    return ledger


def test_off_by_one_rank_counts_as_a_failure(monkeypatch, tmp_path):
    def off_by_one(report):
        report["rank"] += 1

    ledger = _run_tampered(monkeypatch, tmp_path, "large", "csv-full-6x9-r6", off_by_one)
    assert [name for name, _ in ledger.failures if name not in PROBES] == ["csv-full-6x9-r6"]
    assert ledger.wrong
    # that command and the batch's known-defect probe
    assert ledger.ok_frac == (ledger.attempted - 2) / ledger.attempted


def test_missing_family_set_counts_as_a_failure(monkeypatch, tmp_path):
    def drop_a_set(report):
        report["family"]["sets"].pop()
        report["size"] -= 1

    ledger = _run_tampered(monkeypatch, tmp_path, "small", "search-n9", drop_a_set)
    failed = [name for name, _ in ledger.failures if name not in PROBES]
    # the family-check of that result has no input either
    assert failed == ["search-n9", "check-search-n9"]
    assert ledger.wrong
    assert ledger.ok_frac < 1


def test_checks_follow_the_paper():
    half = Fraction(1, 2)
    assert matched_root(Fraction(2, 5), "+") == 4
    assert matched_root(Fraction(3, 11), "+") == 9
    assert design_multiplicity(7, 3, 1, mu_squared(linear_values(half, 1, Fraction(2)))) == 6
    assert design_multiplicity(23, 11, 5, mu_squared(linear_values(half, 2, Fraction(3)))) == 22


def test_tracing_restores_every_binding(tmp_path):
    cli, batch, _ = run.set_up("small", 1, tmp_path, tiny=True)
    spectra = sys.modules["symrank.spectra"]
    before = (cli.main, cli.rank_sandwich, spectra.rank_sandwich, spectra.Matrix.rank)
    with Tracer().installed():
        assert cli.rank_sandwich is spectra.rank_sandwich is not before[1]
    assert (cli.main, cli.rank_sandwich, spectra.rank_sandwich, spectra.Matrix.rank) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "small", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
