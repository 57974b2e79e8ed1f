"""Benchmark of the symrank CLI: time to a certified result, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload small --seed 1 --seconds 55 --trace 0

Each run is one process and one closed-loop caller, kept on one CPU.  It
imports symrank from `src/`, generates the workload's inputs from the seed,
runs the workload's fixed command batch once to warm up, then through
`symrank.cli.main(argv)` again and again until `--seconds` have passed since
the warm-up began, each command only after the previous one returned,
and checks every report against the mathematics (see `checks`).

With `--trace 0` the last line of standard output gives the end-to-end
metrics: batch times as medians over the batches run, divided by the median
time of a fixed reference work (see `reference_work`), and the median of
set-ups spread through the run.  With `--trace 1` untraced and traced batches
alternate, and the line gives the per-layer metrics of the traced batches
(see `tracing`) plus the tracing overhead.  A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import batches
from checks import CheckFailed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: fewest set-ups per run; setup_s is their median
SETUP_REPEATS = 9

END_TO_END = (
    ("wall_x", "x"),
    ("big_cmd_x", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
)

PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("exactfield.quadext_new.calls", "count"),
    ("exactfield.square_free_part.calls", "count"),
    ("exactfield.square_free_part.s", "s"),
    ("exactfield.parse_scalar.calls", "count"),
    ("exactfield.parse_scalar.s", "s"),
    ("linalg.from_csv.s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.s", "s"),
    ("linalg.rank.int_s", "s"),
    ("linalg.rank.quad_s", "s"),
    ("linalg.rank.cells", "cells"),
    ("linalg.rank.deficient_frac", "frac"),
    ("ensemble.pair_value.calls", "count"),
    ("ensemble.matrix_from_bigraph.calls", "count"),
    ("ensemble.matrix_from_bigraph.s", "s"),
    ("ensemble.matrix_from_tournament.s", "s"),
    ("ensemble.random_tournament.s", "s"),
    ("ensemble.mu_squared.s", "s"),
    ("spectra.rank_sandwich.calls", "count"),
    ("spectra.rank_sandwich.self_s", "s"),
    ("spectra.bigraph_multiplicity.calls", "count"),
    ("spectra.bigraph_multiplicity.s", "s"),
    ("spectra.low_rank_matching_instance.s", "s"),
    ("designs.hadamard_validate.calls", "count"),
    ("designs.hadamard_validate.s", "s"),
    ("designs.paley.s", "s"),
    ("designs.sylvester.s", "s"),
    ("designs.symmetric_design_validate.s", "s"),
    ("designs.design_rank_instance.s", "s"),
    ("families.search_bisection_closed.calls", "count"),
    ("families.search_bisection_closed.s", "s"),
    ("families.hadamard_family.s", "s"),
    ("families.theta_violation.s", "s"),
    ("trace.overhead_frac", "frac"),
)


@dataclass
class Outcome:
    code: int | None
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Ledger:
    """Commands attempted and failed over a run, and whether any report was wrong."""

    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    wrong: bool = False

    def fail(self, name: str, problem: str, wrong: bool = False) -> None:
        self.failures.append((name, problem))
        self.wrong = self.wrong or wrong

    @property
    def ok_frac(self) -> float:
        return (self.attempted - len(self.failures)) / self.attempted


@dataclass
class BatchTimes:
    wall: float = 0.0
    out_bytes: int = 0
    #: seconds of each command that ran
    commands: dict[str, float] = field(default_factory=dict)
    #: seconds of reference_work, once before each command
    reference: list[float] = field(default_factory=list)


def reference_work() -> None:
    """A fixed piece of exact arithmetic in plain Python, timed before every command.

    The host's speed drifts by up to 1.4x over minutes, and every command's
    time drifts with it.  The time of this work drifts the same way, so a
    time divided by its median over the run compares across runs.  It calls
    no symrank code, so no change to the program moves it.
    """
    for _ in range(8):
        n = 7
        rows = [[Fraction((5 * i + 3 * j) % 11 - 5, 1 + i * j % 4) for j in range(n)] for i in range(n)]
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(rank + 1, n):
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        m = [[(7 * i * i + 13 * j + 1) % 97 - 48 for j in range(14)] for i in range(14)]
        prev = 1
        for k in range(13):
            for i in range(k + 1, 14):
                for j in range(k + 1, 14):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k] or 1


def run_command(cli, argv: list[str]) -> Outcome:
    """One CLI invocation in this process, with its report and messages captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command; the batch goes on
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    return Outcome(code, seconds, out.getvalue(), err.getvalue())


def judge(cmd: batches.Command, outcome: Outcome) -> tuple[dict | None, str | None, bool]:
    """(report, problem, wrong): a non-zero exit is a failure, a bad report also wrong."""
    if outcome.code != 0:
        lines = outcome.stderr.strip().splitlines() or [""]
        return None, f"exit {outcome.code}: {lines[-1]}", False
    try:
        report = json.loads(outcome.stdout)
        cmd.check(report)
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return None, f"bad report: {type(exc).__name__}: {exc}", True
    return report, None, False


def run_batch(cli, batch: batches.Batch, ledger: Ledger) -> BatchTimes:
    """Run every command of the batch in order, checking each report."""
    times = BatchTimes()
    reports = {}
    for cmd in batch.commands:
        ledger.attempted += 1
        if cmd.prepare is not None:
            try:
                cmd.prepare(reports)
            except CheckFailed as exc:
                ledger.fail(cmd.name, str(exc))
                continue
        start = perf_counter()
        reference_work()
        times.reference.append(perf_counter() - start)
        outcome = run_command(cli, cmd.argv)
        times.wall += outcome.seconds
        times.out_bytes += len(outcome.stdout.encode())
        times.commands[cmd.name] = outcome.seconds
        report, problem, wrong = judge(cmd, outcome)
        if problem is None:
            reports[cmd.name] = report
        else:
            ledger.fail(cmd.name, problem, wrong)
    return times


def _forget_symrank() -> dict:
    """Remove symrank's modules from sys.modules and return them."""
    names = [m for m in sys.modules if m == "symrank" or m.startswith("symrank.")]
    return {name: sys.modules.pop(name) for name in names}


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import symrank afresh and generate the inputs.

    Returns the CLI module, the batch and the set-up time.
    """
    _forget_symrank()
    start = perf_counter()
    cli = importlib.import_module("symrank.cli")
    batch = batches.build(workload, seed, workdir, tiny)
    return cli, batch, perf_counter() - start


def time_set_up(workload: str, seed: int, workdir: Path, tiny: bool) -> float:
    """One more set-up, timed; the modules and inputs in use stay as they were.

    The seed fixes the inputs, so the files are written again unchanged.
    """
    in_use = _forget_symrank()
    seconds = set_up(workload, seed, workdir, tiny)[2]
    _forget_symrank()
    sys.modules.update(in_use)
    return seconds


def _layer_metrics(totals: dict) -> dict:
    calls = totals.get("linalg.rank.calls", 0)
    values = dict(totals)
    values["linalg.rank.deficient_frac"] = totals.get("linalg.rank.deficient", 0) / calls if calls else 0.0
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny=False):
    """One benchmark run; returns the result object printed as the last line,
    and the (command, problem) of every failure."""
    cli, batch, first_setup = set_up(workload, seed, workdir, tiny)
    setups = [first_setup]
    ledger = Ledger()
    deadline = perf_counter() + seconds
    # warm-up: fills lazy caches and allocator pools; checked, but not timed
    run_batch(cli, batch, ledger)

    def timed_batch() -> BatchTimes:
        # set-ups go between batches, so that setup_s sees the whole run
        setups.append(time_set_up(workload, seed, workdir, tiny))
        return run_batch(cli, batch, ledger)

    if not trace:
        reps = []
        while not reps or perf_counter() < deadline:
            reps.append(timed_batch())
        while len(setups) < SETUP_REPEATS:
            setups.append(time_set_up(workload, seed, workdir, tiny))
        wall = statistics.median(r.wall for r in reps)
        big = statistics.median(r.commands.get(batch.big, 0.0) for r in reps)
        reference = statistics.median(t for r in reps for t in r.reference)
        sys.stderr.write(
            f"bench: seconds: wall={wall:.4f} big_cmd={big:.4f} reference={reference:.6f}\n"
        )
        values = {
            "wall_x": wall / reference,
            "big_cmd_x": big / reference,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": ledger.ok_frac,
        }
        units = dict(END_TO_END)
    else:
        tracer = Tracer()
        plain, traced, layers = [], [], []
        while not traced or perf_counter() < deadline:
            plain.append(run_batch(cli, batch, ledger).wall)
            with tracer.installed():
                rep = run_batch(cli, batch, ledger)
            totals = tracer.collect()
            accounted = totals["main_thread.accounted_s"]
            if abs(accounted - rep.wall) > 0.05 * rep.wall + 1e-3:
                raise RuntimeError(
                    f"main-thread spans account for {accounted:.4f} s of a {rep.wall:.4f} s batch"
                )
            totals["cli.out_bytes"] = rep.out_bytes
            layers.append(_layer_metrics(totals))
            traced.append(rep.wall)
        values = {
            name: statistics.median(layer[name] for layer in layers) for name, _ in PER_LAYER
        }
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        units = dict(PER_LAYER)
    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, ledger.failures


def pin_to_one_cpu() -> int | None:
    """Keep every thread of this process on one CPU; returns that CPU.

    The CLI's default pool runs os.cpu_count() threads that take turns on
    the GIL.  Spread over several CPUs, each hand-off waits for another CPU
    to wake, and that wait depends on what else the host runs there: the
    same batch then takes one of two times about 1.3x apart.  On one CPU
    the pool is the same, and its hand-offs cost the same on every run.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=batches.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symrank" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no symrank sources under {ROOT / 'src'}\n")
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        result, failures = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    sys.stderr.write(
        f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()} "
        f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}\n"
    )
    for (name, problem), count in sorted(Counter(failures).items()):
        sys.stderr.write(f"bench: failed {count}x {name}: {problem}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
