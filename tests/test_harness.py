"""Theorem harness: reports, determinism, worker pool."""

from __future__ import annotations

import json
import os
import random
import signal

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
            bad = oldset.harness._unremovable(g, full, set(g.adj))
            for v in range(g.n):
                assert bool(bad >> v & 1) == (not is_old_set(g, full & ~(1 << v)))
            assert bad == classify_forced(g).forced
            checked += 1
    assert checked == 1 + 1 + 3 + 11 + 61 + 507 + 7442  # locatable, n = 2..8


def test_a_census_sweep_tests_each_graph_once_for_an_old_set(monkeypatch):
    # whether V is an OLD set is decided once per graph, by the row-set
    # test, and is_old_set itself is never called
    graphs = list(enumerate_connected_graphs(7))
    calls = []
    old_set_calls = []
    locatable_rows = oldset.graphs._locatable_rows

    def counted(g):
        calls.append(g)
        return locatable_rows(g)

    def forbidden(g, s):
        old_set_calls.append(g)
        return is_old_set(g, s)

    # every module that holds a name, so a caller importing it directly
    # is counted too
    for module in (oldset.graphs, oldset.harness, oldset.domination):
        if hasattr(module, "_locatable_rows"):
            monkeypatch.setattr(module, "_locatable_rows", counted)
        if hasattr(module, "is_old_set"):
            monkeypatch.setattr(module, "is_old_set", forbidden)
    report = run_harness(graphs, 7)
    assert report.locatable_count > 0
    assert calls == graphs
    assert old_set_calls == []


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
    monkeypatch.setattr(
        oldset.harness, "is_union_of_half_graphs", lambda g, classes=None: True
    )
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


def _nothing_forced(g, classes=None):
    return ForcedClassification(0, 0, (1 << g.n) - 1)


def _everything_forced(g, classes=None):
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
        searched.append(to_graph6(result[0]))
        return result

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


def _the_one_report(stream, monkeypatch):
    """The report of stream, equal under two scramblings, one or two jobs,
    and one chunk or chunks of three graphs, which put isomorphic copies
    and violations in different chunks."""
    reports = set()
    for chunk in (oldset.harness._CHUNK, 3):
        monkeypatch.setattr(oldset.harness, "_CHUNK", chunk)
        reports.update(
            run_harness(_scrambled(stream, seed), 6, jobs=jobs).to_json()
            for seed in (1, 2)
            for jobs in (1, 2)
        )
    assert len(reports) == 1
    return json.loads(reports.pop())


def test_mixed_stream_report_is_deterministic_in_certificate_order(monkeypatch):
    stream = _mixed_stream()
    report = _the_one_report(stream, monkeypatch)
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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    stream = _mixed_stream()
    report = _the_one_report(stream, monkeypatch)
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


def _dealt_in_process(calls):
    """A stand-in for harness._forked that records each worker count in
    calls and sweeps every worker's share in this process, each worker
    but 0 from the chunks of its own iteration of again when given."""

    def forked(units, n, w, again):
        calls.append(w)
        units = list(units)
        rows = oldset.harness._share(units, n, 0, w)
        for r in range(1, w):
            mine = units if again is None else oldset.harness._chunks(again)
            rows += oldset.harness._share(mine, n, r, w)
        return rows

    return forked


class _Pulled:
    """A re-iterable over items that counts the items that this process
    pulls from it, over all its iterations."""

    def __init__(self, items):
        self.items = items
        self.count = 0

    def __iter__(self):
        for item in self.items:
            self.count += 1
            yield item


def _counted_forks(monkeypatch):
    """The pids os.fork returns in this process from now on."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_capped_by_cores_and_chunks(monkeypatch):
    from oldset.cli import main

    sizes = []
    monkeypatch.setattr(oldset.harness, "_forked", _dealt_in_process(sizes))
    monkeypatch.setattr(oldset.harness, "_CHUNK", 2)
    graphs = list(enumerate_connected_graphs(5))  # 21 graphs, 11 chunks
    solo = run_harness(graphs, 5).to_json()
    for cores, jobs, count, expected in [
        (2, 5000, 21, 2),   # never more workers than cores
        (2, 2, 21, 2),      # two jobs on two cores keep both
        (64, 5000, 21, 11),  # one chunk per worker
        (64, 5000, 3, 2),
        (64, 8, 21, 8),
        (None, 4, 21, None),  # unknown core count: run in process
        (64, 4, 2, None),  # one chunk
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
    # a census of order 8 or more is 853 subtrees, whatever the chunk size
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes.clear()
    assert main(["verify", "--n", "5", "--jobs", "5000", "--format", "structured"]) == 0
    assert sizes == []
    assert main(["verify", "--n", "8", "--jobs", "5000", "--format", "structured"]) == 0
    assert sizes == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 5000)
    assert run_harness(enumerate_connected_graphs(8), 8, jobs=5000).graphs_scanned == 11117
    assert sizes == [2, 853]


def test_a_sweep_forks_by_its_size_alone(monkeypatch):
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    chunk = oldset.harness._CHUNK
    k1 = from_edges(1, [])
    # the cheapest graph there is: only the count decides, every time
    for _ in range(3):
        assert run_harness([k1] * chunk, 1, jobs=2).graphs_scanned == chunk
        assert forks == []
    for _ in range(3):
        assert run_harness([k1] * (chunk + 1), 1, jobs=2).graphs_scanned == chunk + 1
    assert len(forks) == 3
    # a census by its order: up to order 7 it is one unit
    for n in (6, 7):
        assert run_harness(enumerate_connected_graphs(n), n, jobs=2).violations == 0
    assert len(forks) == 3
    assert run_harness(enumerate_connected_graphs(8), 8, jobs=2).violations == 0
    assert len(forks) == 4
    _no_children_left()


def test_a_sweep_without_fork_runs_in_process(monkeypatch):
    monkeypatch.setattr(oldset.harness, "_CHUNK", 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    graphs = list(enumerate_connected_graphs(6))
    solo = run_harness(graphs, 6).to_json()
    monkeypatch.delattr(os, "fork")
    sizes = []
    monkeypatch.setattr(oldset.harness, "_forked", _dealt_in_process(sizes))
    assert run_harness(graphs, 6, jobs=2).to_json() == solo
    assert run_harness(enumerate_connected_graphs(8), 8, jobs=2).graphs_scanned == 11117
    assert sizes == []


def test_the_sweep_pulls_its_input_one_chunk_at_a_time(monkeypatch):
    # the input is read as the sweep goes, never more than the chunk
    # being examined ahead of it
    monkeypatch.setattr(oldset.harness, "_CHUNK", 3)
    graphs = list(enumerate_connected_graphs(5))  # 21 graphs, 7 chunks
    pulled = 0

    def counted():
        nonlocal pulled
        for g in graphs:
            pulled += 1
            yield g

    ahead = []
    sweep = oldset.harness._sweep

    def watched(n, unit, items):
        ahead.append(pulled - 3 * unit)
        return sweep(n, unit, items)

    monkeypatch.setattr(oldset.harness, "_sweep", watched)
    report = run_harness(counted(), 5, jobs=1)
    assert report.graphs_scanned == 21
    assert ahead == [3] * 7
    assert report.to_json() == run_harness(graphs, 5).to_json()


def test_the_sweep_pulls_a_stream_one_chunk_at_a_time(monkeypatch, tmp_path, capsys):
    # the same for the records of a stream, which the CLI's reader hands
    # on one at a time, the first pulled to find the order
    from oldset.cli import main

    monkeypatch.setattr(oldset.harness, "_CHUNK", 3)
    path = tmp_path / "five.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in enumerate_connected_graphs(5)))
    argv = ["verify", "--stream", str(path), "--format", "structured"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    lines = _Pulled(oldset.cli._Lines(str(path)))

    def counted(path):
        return lines

    ahead = []
    sweep = oldset.harness._sweep

    def watched(n, unit, items):
        ahead.append(lines.count - 3 * unit)
        return sweep(n, unit, items)

    monkeypatch.setattr(oldset.cli, "_Lines", counted)
    monkeypatch.setattr(oldset.harness, "_sweep", watched)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert json.loads(expected)["graphs_scanned"] == 21
    # the chunk being examined, and the first record, which was pulled
    # once more to find the order
    assert ahead == [4] * 7


def _holds_a_graph(value) -> bool:
    if isinstance(value, Graph):
        return True
    if isinstance(value, (tuple, list)):
        return any(map(_holds_a_graph, value))
    return False


def test_a_pool_is_sent_records_not_graphs(monkeypatch, tmp_path, capsys):
    # each worker parses the records of its own chunks, and only rows of
    # results come back from a forked worker, never a graph
    from oldset.cli import main

    swept = []
    sweep = oldset.harness._sweep

    def watched(n, unit, items):
        swept.append((unit, items))
        return sweep(n, unit, items)

    reaped = []
    reap = oldset.harness._reap

    def kept(r, pid, read):
        reaped.append(reap(r, pid, read))
        return reaped[-1]

    monkeypatch.setattr(oldset.harness, "_sweep", watched)
    monkeypatch.setattr(oldset.harness, "_reap", kept)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oldset.harness, "_CHUNK", 40)
    records = [to_graph6(g) for g in _mixed_stream()] + ["!!!"]  # 120 records
    path = tmp_path / "mixed.g6"
    path.write_text("".join(record + "\n" for record in records))
    argv = ["verify", "--stream", str(path), "--n", "6", "--format", "structured"]
    assert main(argv + ["--jobs", "1"]) == 0
    solo = capsys.readouterr().out
    assert [unit for unit, _ in swept] == [0, 1, 2]
    assert reaped == []
    swept.clear()
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == solo
    # this process is worker 0, and its child worker 1
    assert [unit for unit, _ in swept] == [0, 2]
    assert [[unit for unit, _ in results] for results in reaped] == [[1]]
    assert not _holds_a_graph(reaped)
    items = [item for _, chunk in swept for item in chunk]
    assert all(
        type(item) is tuple and list(map(type, item)) == [int, str] for item in items
    )
    numbered = list(enumerate(records, 1))
    assert items == numbered[:40] + numbered[80:]
    _no_children_left()


def test_a_cheap_sweep_starts_no_pool(monkeypatch, tmp_path, capsys):
    from oldset.cli import main

    path = tmp_path / "mixed.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in _mixed_stream()))
    argv = ["verify", "--stream", str(path), "--n", "6", "--format", "structured"]
    assert main(argv + ["--jobs", "1"]) == 0
    solo = capsys.readouterr().out
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def no_fork():
        raise AssertionError("a cheap sweep forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == solo
    assert main(["verify", "--n", "7", "--jobs", "2"]) == 0


def test_a_real_pool_keeps_the_report(monkeypatch):
    # rows cross a process boundary, pickled, only on this path
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(oldset.harness, "_CHUNK", 40)  # 112 graphs, 3 chunks
    graphs = list(enumerate_connected_graphs(6))
    solo = run_harness(graphs, 6).to_json()
    assert forks == []
    for jobs in (2, 3):
        assert run_harness(graphs, 6, jobs=jobs).to_json() == solo
    assert len(forks) == 1 + 2
    census = run_harness(enumerate_connected_graphs(8), 8).to_json()
    for jobs in (2, 3):
        assert run_harness(enumerate_connected_graphs(8), 8, jobs=jobs).to_json() == census
    assert len(forks) == 3 + 1 + 2
    _no_children_left()


def test_a_pool_holds_a_bounded_number_of_chunks(monkeypatch):
    # 853 graphs of order 7 in chunks of 64 make 14 chunks; the input
    # comes from a list, so it could be pulled far faster than two
    # workers sweep it.  Worker 0, this process, holds the three chunks
    # peeked at before the fork, then only the chunk it sweeps
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oldset.harness, "_CHUNK", 64)
    graphs = list(enumerate_connected_graphs(7))
    pulled = _Pulled(graphs)
    held = []
    sweep = oldset.harness._sweep

    def watched(n, unit, items):
        held.append(pulled.count - 64 * unit)
        return sweep(n, unit, items)

    solo = run_harness(graphs, 7).to_json()
    monkeypatch.setattr(oldset.harness, "_sweep", watched)
    pooled = run_harness(pulled, 7, jobs=2).to_json()
    assert pooled == solo
    # worker 0's units, 0, 2, ..., 12; unit 0 with units 1 and 2 peeked
    # behind it
    assert held == [192] + [64] * 6
    _no_children_left()


def test_a_lazy_file_input_gives_the_one_process_report(monkeypatch, tmp_path):
    # forked workers that all pulled one iterator over an open file would
    # read it through one shared file offset, each its own part of the
    # records, so an iterator is swept in process; a re-iterable that
    # opens the file on each iteration is still shared out
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oldset.harness, "_CHUNK", 500)
    rng = random.Random(5)
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    path = tmp_path / "lazy.g6"
    path.write_text(
        "".join(
            to_graph6(from_edges(10, [e for e in edges if rng.random() < 0.4])) + "\n"
            for _ in range(4000)
        )
    )

    def records(handle):
        return ((i, line.strip()) for i, line in enumerate(handle, 1))

    class Reopened:
        def __iter__(self):
            with open(path) as handle:
                yield from records(handle)

    forks = _counted_forks(monkeypatch)
    with open(path) as handle:
        solo = run_harness(records(handle), 10).to_json()
    assert json.loads(solo)["graphs_scanned"] == 4000
    assert json.loads(solo)["record_errors"] == []
    with open(path) as handle:
        assert run_harness(records(handle), 10, jobs=2).to_json() == solo
    assert forks == []
    assert run_harness(Reopened(), 10, jobs=2).to_json() == solo
    # two chunks, both peeked at, so the forked worker inherits them
    monkeypatch.setattr(oldset.harness, "_CHUNK", 2000)
    assert run_harness(Reopened(), 10, jobs=2).to_json() == solo
    assert len(forks) == 2
    _no_children_left()


def _raise_in_unit(bad, exc):
    sweep = oldset.harness._sweep

    def failing(n, unit, items):
        if unit == bad:
            raise exc
        return sweep(n, unit, items)

    return failing


def test_a_worker_that_raises_makes_the_sweep_raise(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oldset.harness, "_CHUNK", 40)
    graphs = list(enumerate_connected_graphs(6))  # 112 graphs, 3 chunks
    # unit 1 is swept by the forked worker
    monkeypatch.setattr(oldset.harness, "_sweep", _raise_in_unit(1, ValueError("unit one")))
    with pytest.raises(RuntimeError, match="sweep worker 1 raised:(.|\n)*ValueError: unit one"):
        run_harness(graphs, 6, jobs=2)
    _no_children_left()
    # units 0 and 2 are this process's; the forked worker is stopped
    monkeypatch.setattr(oldset.harness, "_sweep", _raise_in_unit(2, KeyError("unit two")))
    with pytest.raises(KeyError, match="unit two"):
        run_harness(graphs, 6, jobs=2)
    _no_children_left()


def test_a_worker_that_dies_is_an_error_not_a_hang(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oldset.harness, "_CHUNK", 40)
    graphs = list(enumerate_connected_graphs(6))
    sweep = oldset.harness._sweep

    def dying(n, unit, items):
        if unit == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return sweep(n, unit, items)

    monkeypatch.setattr(oldset.harness, "_sweep", dying)
    with pytest.raises(RuntimeError, match="sweep worker 1 ended with wait status 9"):
        run_harness(graphs, 6, jobs=2)
    _no_children_left()


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


def test_stream_parse_errors_come_first_in_record_order():
    records = [(2, "!!!"), (3, "A_"), (5, "Bw"), (9, "I??")]
    report = run_harness(records, 3)
    assert report.record_errors == [
        "record 2: bad graph6 record '!!!': byte 33 outside the graph6 range 63..126",
        "record 9: bad graph6 record 'I??': order 10 needs 8 data bytes, found 2",
        "A_: order differs from sweep order 3",
    ]
    assert report.graphs_scanned == 2
    report = run_harness(records[::3], 3)
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


def test_one_share_of_the_order_10_census_is_pinned():
    # residue 7 of 500, the units a worker 7 of 500 would sweep: two of
    # the 853 subtrees below the order-7 classes, about a second; the
    # whole order-10 line is a CI job of its own
    units = enumerate_connected_graphs(10)._units()
    assert len(units) == 853
    swept = oldset.harness._share(units, 10, 7, 500)
    assert [i for i, _ in swept] == [7, 507]
    scanned, locatable, errors, named = map(list, zip(*(row for _, row in swept)))
    assert sum(scanned) == 23241
    assert sum(locatable) == 22749
    assert errors == [[], []]
    assert named == [[], []]
