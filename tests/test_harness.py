"""Theorem harness: reports, determinism, worker pool."""

from __future__ import annotations

import concurrent.futures
import json
import os
import random

import pytest

import oldset.domination
import oldset.graphs
import oldset.harness
from oldset import (
    ForcedClassification,
    Graph,
    HarnessReport,
    SolveResult,
    canonical_form,
    classify_forced,
    disjoint_union,
    enumerate_connected_graphs,
    from_edges,
    half_graph,
    induced_subgraph,
    is_connected,
    is_locatable,
    is_old_set,
    old_number,
    parse_graph6,
    run_harness,
    to_graph6,
)


def _k(n: int):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _relabel(g, perm):
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_harness_order_4():
    report = run_harness(enumerate_connected_graphs(4), 4)
    assert report.theorem_holds
    assert report.counterexamples == []
    assert report.violations == 0
    assert len(report.extremal) == 1
    assert report.extremal[0].encode("ascii") == canonical_form(half_graph(2))


def test_harness_order_5_no_extremal():
    report = run_harness(enumerate_connected_graphs(5), 5)
    assert report.theorem_holds
    assert report.extremal == []
    assert report.graphs_scanned == 21
    assert report.locatable_count == 11


def test_extremal_graphs_have_no_unforced_vertices():
    for n in (2, 4, 6):
        report = run_harness(enumerate_connected_graphs(n), n)
        for cert in report.extremal:
            assert classify_forced(parse_graph6(cert)).unforced == 0


def test_bondy_clean_on_half_graph_stream():
    report = run_harness([half_graph(k) for k in range(1, 7)], 0)
    assert report.bondy_violations == []
    report = run_harness([half_graph(1)], 2)
    assert report.bondy_violations == []
    assert report.locatable_count == 1


def test_removability_examples():
    report = run_harness([_k(3)], 3)
    assert report.prop2_violations == []
    report = run_harness([half_graph(3)], 6)  # vacuous: all forced
    assert report.prop2_violations == []


def test_the_removability_pass_agrees_with_the_old_set_test():
    # asked about every vertex, the pass flags exactly the ones that
    # is_old_set finds unremovable, and those are the forced vertices
    checked = 0
    for n in range(1, 9):
        for g in enumerate_connected_graphs(n):
            if not is_locatable(g):
                continue
            full = (1 << g.n) - 1
            bad = oldset.harness._unremovable(g, full)
            for v in range(g.n):
                assert bool(bad >> v & 1) == (not is_old_set(g, full & ~(1 << v)))
            assert bad == classify_forced(g).forced
            checked += 1
    assert checked == 1 + 1 + 3 + 11 + 61 + 507 + 7442  # locatable, n = 2..8


def test_a_census_sweep_tests_each_graph_once_for_an_old_set(monkeypatch):
    graphs = list(enumerate_connected_graphs(7))
    calls = []

    def counted(g, s):
        calls.append(g)
        return is_old_set(g, s)

    # every module that holds the name, so a caller importing it directly
    # is counted too
    for module in (oldset.graphs, oldset.harness, oldset.domination):
        if hasattr(module, "is_old_set"):
            monkeypatch.setattr(module, "is_old_set", counted)
    report = run_harness(graphs, 7)
    assert report.locatable_count > 0
    assert calls == graphs


def _gamma_one_short(g):
    return SolveResult(g.n - 1, (1 << g.n - 1) - 1, 0, "stub")


def test_a_wrong_gamma_shows_as_a_counterexample(monkeypatch, capsys):
    from oldset.cli import main

    monkeypatch.setattr(oldset.harness, "old_number", _gamma_one_short)
    report = run_harness(enumerate_connected_graphs(4), 4)
    h2 = canonical_form(half_graph(2)).decode("ascii")
    assert report.locatable_count > 1
    assert report.counterexamples == [(h2, 3, True)]
    assert report.extremal == [h2]
    assert not report.theorem_holds
    assert main(["verify", "--n", "4"]) == 4
    assert "theorem holds: NO" in capsys.readouterr().out


def test_a_wrong_half_graph_test_shows_as_counterexamples(monkeypatch):
    monkeypatch.setattr(oldset.harness, "is_union_of_half_graphs", lambda g: True)
    report = run_harness(enumerate_connected_graphs(4), 4)
    h2 = canonical_form(half_graph(2)).decode("ascii")
    locatable = sorted(
        canonical_form(g).decode("ascii")
        for g in enumerate_connected_graphs(4)
        if is_locatable(g)
    )
    assert len(locatable) > 1
    assert [cert for cert, _, _ in report.counterexamples] == [
        cert for cert in locatable if cert != h2
    ]
    assert all(gamma < 4 and half for _, gamma, half in report.counterexamples)
    assert report.extremal == [h2]
    assert not report.theorem_holds


def _nothing_forced(g):
    return ForcedClassification(0, 0, (1 << g.n) - 1)


def _everything_forced(g):
    full = (1 << g.n) - 1
    return ForcedClassification(full, full, 0)


def test_a_wrong_certificate_fails_the_sweep(monkeypatch, capsys):
    from oldset.cli import main

    h2 = canonical_form(half_graph(2)).decode("ascii")
    # a forced vertex called unforced is a removability violation
    monkeypatch.setattr(oldset.harness, "classify_forced", _nothing_forced)
    report = run_harness(enumerate_connected_graphs(4), 4)
    assert (h2, 0) in report.prop2_violations
    assert report.extremal == [h2]
    assert report.theorem_holds
    assert main(["verify", "--n", "4"]) == 4
    assert "unforced removability: VIOLATED" in capsys.readouterr().out
    # a removable vertex called forced hides the removal witness, so the
    # graph is called extremal and its exact solve disagrees
    monkeypatch.setattr(oldset.harness, "classify_forced", _everything_forced)
    report = run_harness(enumerate_connected_graphs(4), 4)
    assert report.counterexamples
    assert all(gamma < 4 and not half for _, gamma, half in report.counterexamples)
    assert not report.theorem_holds
    assert main(["verify", "--n", "4"]) == 4


def test_exact_solver_runs_only_on_graphs_called_extremal(monkeypatch):
    solved = []

    def counted(g):
        solved.append(canonical_form(g).decode("ascii"))
        return old_number(g)

    monkeypatch.setattr(oldset.harness, "old_number", counted)
    run_harness(enumerate_connected_graphs(5), 5)
    assert solved == []
    run_harness(enumerate_connected_graphs(6), 6)
    assert solved == ["E@Ug"]


def _toggles(h):
    """Connected locatable graphs one edge toggle away from h."""
    for u in range(h.n):
        for v in range(u + 1, h.n):
            adj = list(h.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            g = Graph(h.n, tuple(adj))
            if is_connected(g) and is_locatable(g):
                yield g


@pytest.mark.parametrize("k", range(2, 9))
def test_single_edge_toggles_of_a_half_graph_are_not_extremal(k):
    toggles = list(_toggles(half_graph(k)))
    assert toggles
    report = run_harness(toggles, 2 * k)
    assert report.locatable_count == len(toggles)
    assert report.theorem_holds
    assert report.extremal == []
    assert report.violations == 0
    for g in toggles:
        assert old_number(g).gamma < 2 * k
        assert classify_forced(g).unforced != 0


def _one_vertex_larger(h):
    """Connected locatable graphs: h plus a vertex joined to a nonempty subset."""
    for mask in range(1, 1 << h.n):
        rows = tuple(row | (mask >> v & 1) << h.n for v, row in enumerate(h.adj))
        g = Graph(h.n + 1, rows + (mask,))
        if is_connected(g) and is_locatable(g):
            yield g


def _one_vertex_smaller(h):
    """Every graph h - v."""
    full = (1 << h.n) - 1
    for v in range(h.n):
        yield induced_subgraph(h, full & ~(1 << v))[0]


@pytest.mark.parametrize("k", range(2, 6))
def test_graphs_one_vertex_off_a_half_graph_are_not_extremal(k, tmp_path, capsys):
    from oldset.cli import main

    h = half_graph(k)
    larger = list(_one_vertex_larger(h))
    smaller = list(_one_vertex_smaller(h))
    assert larger
    # deleting v_1 or w_k isolates w_1 or v_k, and any other deletion
    # leaves two twins, so no graph one vertex smaller is locatable
    assert not any(is_locatable(g) for g in smaller)
    for name, graphs in (("larger", larger), ("smaller", smaller)):
        path = tmp_path / f"{name}.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        order = graphs[0].n
        argv = ["verify", "--stream", str(path), "--n", str(order)]
        assert main(argv + ["--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graphs_scanned"] == len(graphs)
        assert payload["locatable_count"] == sum(map(is_locatable, graphs))
        assert payload["extremal"] == []
        assert payload["record_errors"] == []
        for violations in ("counterexamples", "bondy_violations", "prop2_violations"):
            assert payload[violations] == []


def _scrambled(graphs, seed):
    """Randomly relabeled copies of graphs, in shuffled order."""
    rng = random.Random(seed)
    copies = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        copies.append(_relabel(g, perm))
    rng.shuffle(copies)
    return copies


def test_only_reported_graphs_are_canonicalised(monkeypatch):
    searched = []
    labeling = oldset.graphs._canonical_labeling

    def counted(g):
        result = labeling(g)
        searched.append(result[0]._canon.decode("ascii"))
        return result

    # fresh copies carry no certificate from the enumeration
    stream = _scrambled(enumerate_connected_graphs(6), 3)
    monkeypatch.setattr(oldset.graphs, "_canonical_labeling", counted)
    report = run_harness(stream, 6)
    assert report.graphs_scanned == 112
    assert report.extremal == ["E@Ug"]
    assert searched == ["E@Ug"]


def _mixed_stream():
    """Every order-6 class, extra and off-order half-graphs, non-locatable graphs."""
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    extra = [half_graph(2), half_graph(3), half_graph(3), half_graph(4), c4, c4, _k(5)]
    return list(enumerate_connected_graphs(6)) + extra


def _the_one_report(stream):
    """The report of stream, equal under two scramblings and one or two jobs."""
    reports = {
        run_harness(_scrambled(stream, seed), 6, jobs=jobs).to_json()
        for seed in (1, 2)
        for jobs in (1, 2)
    }
    assert len(reports) == 1
    return json.loads(reports.pop())


def test_mixed_stream_report_is_deterministic_in_certificate_order():
    stream = _mixed_stream()
    report = _the_one_report(stream)
    assert report["extremal"] == sorted(
        canonical_form(half_graph(k)).decode("ascii") for k in (2, 3, 3, 3, 4)
    )
    off_order = sorted(
        canonical_form(g).decode("ascii") for g in stream if g.n != 6
    )
    assert len(off_order) == 5
    assert report["record_errors"] == [
        f"{cert}: order differs from sweep order 6" for cert in off_order
    ]
    assert report["graphs_scanned"] == len(stream)
    assert report["locatable_count"] == sum(map(is_locatable, stream))


def test_mixed_stream_violations_are_deterministic(monkeypatch):
    # every locatable graph is called extremal, breaks the Bondy bound
    # and solves one short of its order, filling the remaining lists
    monkeypatch.setattr(oldset.harness, "classify_forced", _everything_forced)
    monkeypatch.setattr(oldset.harness, "old_number", _gamma_one_short)
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: _InProcessPool(),
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _decide_after_one_graph(monkeypatch)
    stream = _mixed_stream()
    report = _the_one_report(stream)
    locatable = sorted(
        canonical_form(g).decode("ascii") for g in stream if is_locatable(g)
    )
    assert [cert for cert, _, _ in report["counterexamples"]] == locatable
    assert [cert for cert, _ in report["bondy_violations"]] == locatable
    assert report["extremal"] == locatable


def test_report_deterministic_under_relabeling_and_shuffling():
    graphs = list(enumerate_connected_graphs(6))
    original = run_harness(graphs, 6)
    scrambled = run_harness(_scrambled(graphs, 97), 6)
    assert original.to_json() == scrambled.to_json()


def test_report_deterministic_across_worker_counts():
    graphs = list(enumerate_connected_graphs(5))
    solo = run_harness(graphs, 5)
    pooled = run_harness(graphs, 5, jobs=3)
    assert solo.to_json() == pooled.to_json()


class _InProcessPool:
    """Stands in for ProcessPoolExecutor without starting a process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def _decide_after_one_graph(monkeypatch):
    """Make every sweep with more than one graph left take its pool."""
    monkeypatch.setattr(oldset.harness, "_PROBE_S", 0)
    monkeypatch.setattr(oldset.harness, "_POOL_PAYS_S", 0)


def test_pool_is_capped_by_cores_and_chunks(monkeypatch):
    from oldset.cli import main

    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return _InProcessPool()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    _decide_after_one_graph(monkeypatch)
    graphs = list(enumerate_connected_graphs(5))  # 21 graphs
    solo = run_harness(graphs, 5).to_json()
    # the probe takes one graph, so each cap counts the count - 1 left
    for cores, jobs, count, expected in [
        (2, 5000, 21, 2),   # never more workers than cores
        (2, 2, 21, 2),      # two jobs on two cores keep both
        (64, 5000, 21, 20),  # one graph per chunk, one chunk per worker
        (64, 5000, 3, 2),
        (64, 8, 21, 8),
        (None, 4, 21, None),  # unknown core count: run in process
        (64, 4, 2, None),  # one graph left is one chunk
        (64, 4, 1, None),
        (64, 4, 0, None),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        sizes.clear()
        report = run_harness(graphs[:count], 5, jobs=jobs)
        assert sizes == ([] if expected is None else [expected])
        assert report.graphs_scanned == count
        if count == len(graphs):
            assert report.to_json() == solo
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes.clear()
    assert main(["verify", "--n", "5", "--jobs", "5000", "--format", "structured"]) == 0
    assert sizes == [2]


def _no_pool(max_workers):
    raise AssertionError("a cheap sweep started a process pool")


def test_a_cheap_sweep_starts_no_pool(monkeypatch, tmp_path, capsys):
    from oldset.cli import main

    path = tmp_path / "mixed.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in _mixed_stream()))
    argv = ["verify", "--stream", str(path), "--n", "6", "--format", "structured"]
    assert main(argv + ["--jobs", "1"]) == 0
    solo = capsys.readouterr().out
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == solo


def test_a_real_pool_keeps_the_report(monkeypatch):
    # graphs and rows cross a process boundary, through Graph.__reduce__
    # and _Row, only on this path
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def counted(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _decide_after_one_graph(monkeypatch)
    solo = run_harness(enumerate_connected_graphs(6), 6).to_json()
    pooled = run_harness(enumerate_connected_graphs(6), 6, jobs=2).to_json()
    assert started == [2]
    assert pooled == solo


def test_structured_dump_is_stable_and_timing_free():
    graphs = list(enumerate_connected_graphs(4))
    first = run_harness(graphs, 4).to_json()
    second = run_harness(graphs, 4).to_json()
    assert first == second
    payload = json.loads(first)
    assert "timing" not in payload
    assert payload["theorem_holds"] is True
    report = run_harness(graphs, 4)
    assert report.timing > 0
    assert f"elapsed: {report.timing:.2f}s" in report.to_text()


def test_text_report_mentions_the_extremal_class():
    report = run_harness(enumerate_connected_graphs(4), 4)
    text = report.to_text()
    assert "theorem holds: yes" in text
    assert report.extremal[0] in text
    assert "elapsed" in text


def test_order_mismatch_lands_in_record_errors():
    report = run_harness([half_graph(1), half_graph(2)], 4)
    assert len(report.record_errors) == 1
    assert report.graphs_scanned == 2


def test_caller_record_errors_pass_through():
    report = run_harness([], 3, record_errors=["record 2: bad byte"])
    assert report.record_errors == ["record 2: bad byte"]
    assert report.graphs_scanned == 0
    assert report.theorem_holds  # vacuously


def test_disconnected_union_counts_as_extremal_not_counterexample():
    union = disjoint_union(half_graph(1), half_graph(2))
    report = run_harness([union], 6)
    assert report.theorem_holds
    assert len(report.extremal) == 1


def test_non_locatable_graphs_are_scanned_but_skipped():
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = run_harness([c4, half_graph(2)], 4)
    assert report.graphs_scanned == 2
    assert report.locatable_count == 1
    assert len(report.extremal) == 1


def test_rendering_of_a_synthetic_failure():
    # the mathematics never produces one, so exercise the report
    # plumbing directly
    report = HarnessReport(n=4)
    report.counterexamples.append(("CL", 3, True))
    text = report.to_text()
    assert "theorem holds: NO" in text
    assert "counterexample CL" in text
    assert report.violations == 1


def test_run_harness_validates_arguments():
    with pytest.raises(ValueError):
        run_harness([], 3, jobs=0)
