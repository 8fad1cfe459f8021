"""End-to-end acceptance checks: one test per headline guarantee.

Each function stands alone so the -v listing reads as a checklist of
what the package promises.  Budgets are generous — the whole file is
expected to finish in well under the five-minute ceiling the census
test allows itself.
"""

from __future__ import annotations

import json
import random
import time
from functools import lru_cache
from pathlib import Path

from oldset import (
    Graph,
    NotLocatableError,
    canonical_form,
    classify_forced,
    disjoint_union,
    enumerate_connected_graphs,
    from_edges,
    half_graph,
    is_locatable,
    mask_of,
    old_number,
    old_number_bruteforce,
    parse_graph6,
    peel,
    run_harness,
    to_graph6,
    vertices_of,
)

_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected"


@lru_cache(maxsize=None)
def _census(n):
    """The harness report over every connected graph of order n."""
    return run_harness(enumerate_connected_graphs(n), n, jobs=2)


def _random_locatable(rng, n):
    while True:
        p = rng.uniform(0.2, 0.8)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = from_edges(n, edges)
        if is_locatable(g):
            return g


def test_01_half_graph_old_number_is_2k_within_a_second():
    for k in range(1, 7):
        start = time.perf_counter()
        result = old_number(half_graph(k))
        elapsed = time.perf_counter() - start
        assert result.gamma == 2 * k
        assert elapsed <= 1.0


def test_02_half_graph_forced_partition_is_exact():
    # every vertex is forced: v_1 and w_k by domination, the rest by location
    for k in range(2, 7):
        forced = classify_forced(half_graph(k))
        assert forced.domination_forced == mask_of([0, 2 * k - 1])
        assert forced.location_forced == mask_of(range(1, 2 * k - 1))


def test_03_extremal_census_matches_half_graphs_through_order_8():
    start = time.perf_counter()
    for n in range(2, 9):
        report = _census(n)
        assert report.theorem_holds
        assert report.counterexamples == []
        assert report.record_errors == []
        if n % 2 == 0:
            # exactly one extremal class per even order — at n = 8 this is
            # the H_4 witness missing from earlier published censuses
            expect = canonical_form(half_graph(n // 2)).decode("ascii")
            assert report.extremal == [expect]
        else:
            assert report.extremal == []
    # the whole report, side checks included, is the stored census
    for n in (7, 8):
        expected = (_EXPECTED / f"census_n{n}.json").read_text(encoding="ascii")
        assert _census(n).to_json() == expected.rstrip("\n")
    assert time.perf_counter() - start < 300.0


def test_04_base_cases_k2_k3_and_the_order_1_rejection():
    assert old_number(from_edges(2, [(0, 1)])).gamma == 2
    assert old_number(from_edges(3, [(0, 1), (1, 2), (0, 2)])).gamma == 2
    lone = Graph(1, (0,))
    for solver in (old_number, old_number_bruteforce):
        try:
            solver(lone)
        except NotLocatableError as err:
            assert err.isolated == [0]
        else:
            assert False, "an order-1 graph admits no OLD set"


def test_05_location_forced_count_stays_below_order_through_7():
    for n in range(2, 8):
        report = _census(n)
        assert report.locatable_count > 0
        assert report.bondy_violations == []


def test_06_dropping_any_unforced_vertex_keeps_an_old_set_through_7():
    for n in range(2, 8):
        report = _census(n)
        assert report.locatable_count > 0
        assert report.prop2_violations == []


def test_07_branch_and_bound_matches_bruteforce_exactly():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            if not is_locatable(g):
                continue
            fast = old_number(g)
            slow = old_number_bruteforce(g)
            assert fast.gamma == slow.gamma
            assert fast.witness == slow.witness
    rng = random.Random(1729)
    for _ in range(500):
        g = _random_locatable(rng, rng.choice((7, 8)))
        fast = old_number(g)
        slow = old_number_bruteforce(g)
        assert fast.gamma == slow.gamma
        assert fast.witness == slow.witness


def test_08_peeling_a_half_graph_yields_the_previous_one():
    for k in range(2, 9):
        step = peel(half_graph(k))
        assert step is not None
        got = canonical_form(step.graph, max_order=16)
        want = canonical_form(half_graph(k - 1), max_order=16)
        assert got == want


def test_09_gamma_adds_over_disjoint_unions():
    rng = random.Random(91)
    for _ in range(100):
        a = _random_locatable(rng, rng.randrange(2, 6))
        b = _random_locatable(rng, rng.randrange(2, 6))
        u = disjoint_union(a, b)
        whole = old_number(u)  # solved monolithically, no decomposition
        left, right = old_number(a), old_number(b)
        assert whole.gamma == left.gamma + right.gamma
        # and the least witness is the least witness of each side
        assert whole.witness == left.witness | right.witness << a.n


def test_10_codec_round_trips_the_whole_corpus_byte_exact():
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            line = to_graph6(g)
            back = parse_graph6(line)
            assert back == g
            assert to_graph6(back) == line


def test_11_stored_solve_answers_hold_through_order_32():
    # the least witness beyond brute-force reach, as bench/expected records it
    expected = json.loads((_EXPECTED / "solve.json").read_text(encoding="ascii"))
    assert len(expected) == 109
    for record, want in expected.items():
        g = parse_graph6(record)
        result = old_number(g)
        parts = classify_forced(g)
        assert result.gamma == want["gamma"], record
        assert vertices_of(result.witness) == want["witness"], record
        assert vertices_of(parts.domination_forced) == want["domination_forced"]
        assert vertices_of(parts.location_forced) == want["location_forced"]
        assert vertices_of(parts.unforced) == want["unforced"]
