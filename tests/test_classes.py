"""bigraph_classes against Burnside's count, brute-force canonical forms and the raw sweep."""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

import pytest

import symrank.spectra as spectra
from symrank.cli import main
from symrank.ensemble import BipartiteGraph, TwoValuePair, bigraph_classes
from symrank.exactfield import QuadExt

HALF = Fraction(1, 2)
SIZES = [(m, n) for m in range(1, 6) for n in range(1, 6)]


def _cycle_lengths(perm) -> list[int]:
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _burnside(m: int, n: int) -> int:
    """Orbits of S_m x S_n on the 2^(mn) masks: the average of 2^(cycles on cells)."""
    fixed = 0
    for sigma in permutations(range(m)):
        rows = _cycle_lengths(sigma)
        for tau in permutations(range(n)):
            cols = _cycle_lengths(tau)
            fixed += 2 ** sum(gcd(a, b) for a in rows for b in cols)
    return fixed // (factorial(m) * factorial(n))


def _raw_masks(m: int, n: int):
    for code in range(1 << (m * n)):
        yield [(code >> (i * n)) & ((1 << n) - 1) for i in range(m)]


def _canonical(m: int, n: int, rows) -> tuple:
    """The least sorted line tuple over permutations of the smaller part, by brute force."""
    if n > m:
        rows = [sum((rows[i] >> j & 1) << i for i in range(m)) for j in range(n)]
        m, n = n, m
    return min(
        tuple(sorted(sum((r >> j & 1) << p for j, p in enumerate(perm)) for r in rows))
        for perm in permutations(range(n))
    )


@pytest.mark.parametrize("m,n", SIZES)
def test_class_count_is_burnsides_and_orbits_sum_to_all_masks(m, n):
    classes = list(bigraph_classes(m, n))
    assert len(classes) == _burnside(m, n)
    assert sum(orbit for _, orbit in classes) == 1 << (m * n)
    for rows, _ in classes:
        assert len(rows) == m and all(0 <= r < 1 << n for r in rows)


def test_class_totals_match_the_known_counts():
    count = {(m, n): sum(1 for _ in bigraph_classes(m, n)) for m, n in SIZES}
    assert sum(c for (m, n), c in count.items() if m <= 4 and n <= 4) == 630
    assert sum(count.values()) == 8820
    assert (count[4, 4], count[5, 5]) == (317, 5624)  # OEIS A002724


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12])
def test_classes_are_the_brute_force_orbits(m, n):
    orbits = Counter(_canonical(m, n, rows) for rows in _raw_masks(m, n))
    classes = {}
    for rows, orbit in bigraph_classes(m, n):
        key = _canonical(m, n, rows)
        assert key not in classes, f"class {key} yielded twice"
        classes[key] = orbit
    assert classes == dict(orbits)


PAIRS = [
    TwoValuePair.linear(HALF, 1, 2),
    TwoValuePair.table(1, 2, Fraction(3), Fraction(1), Fraction(-1), Fraction(-2)),
    TwoValuePair.linear(HALF, 1, QuadExt(Fraction(3, 2), Fraction(1, 2), 5)),
]


@pytest.mark.parametrize("pair", PAIRS, ids=["linear", "table", "sqrt5"])
def test_class_sweep_sees_every_rank_and_nu_of_the_raw_sweep(pair):
    def signature(m, n, rows):
        rep = spectra.rank_sandwich(pair, BipartiteGraph(m, n, rows))
        return m, n, rep.exact_rank, rep.nu

    sizes = [(m, n) for m in range(1, 4) for n in range(1, 4)]
    raw = {signature(m, n, rows) for m, n in sizes for rows in _raw_masks(m, n)}
    swept = {signature(m, n, rows) for m, n in sizes for rows, _ in bigraph_classes(m, n)}
    assert swept == raw


@pytest.mark.parametrize(
    "fails,message",
    [
        (lambda g: True, "rank 5 escapes [0, 4] for m=1, n=1, nu=0, mu^2=2"),
        (
            lambda g: (g.m, g.n, g.row_masks) == (2, 3, [7, 7]),
            "rank 8 escapes [3, 7] for m=2, n=3, nu=0, mu^2=2",
        ),
    ],
    ids=["every-graph", "only-k23"],
)
def test_a_failing_sandwich_still_exits_one(monkeypatch, capsys, fails, message):
    # the raw 2^(mn) sweep printed these messages too: both sweeps meet the failing class first
    rank = spectra.ensemble_rank
    monkeypatch.setattr(
        spectra,
        "ensemble_rank",
        lambda pair, g: g.m + g.n + 3 if fails(g) else rank(pair, g),
    )
    code = main(["theorem1-verify", "--max-m", "3", "--max-n", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"verification failure: {message}\n"
