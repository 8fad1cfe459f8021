"""One in-process pass of a benchmark workload, with or without spans.

run.py starts this in a fresh interpreter with the package source on
PYTHONPATH, once with --trace 0 and once with --trace 1:

    python3 bench/inprocess.py --workload stream --input FILE --trace 1 --spans OUT

The pass makes the calls the oldset CLI makes for the workload, through
the package's public functions.  For census and stream it then replays,
call by call, the per-graph checks that run_harness makes, so that each
layer's share of the sweep can be timed; the harness's own time is what
is left.  With --trace 1 every call is recorded as a span (name, start,
end, parent span, graph id), kept in memory and written to --spans at
the end.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from collections import defaultdict
from functools import partial

import inputs
from oldset import (
    Graph,
    NotLocatableError,
    bondy_check,
    canonical_form,
    classify_forced,
    enumerate_connected_graphs,
    is_locatable,
    is_old_set,
    is_union_of_half_graphs,
    iter_bits,
    old_number,
    parse_graph6,
    run_harness,
    vertices_of,
)


class Tracer:
    """Spans as (index, name, start, end, parent index, graph id), or nothing.

    A span is stored as a tuple of atoms when its call returns, so the
    garbage collector soon stops scanning it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._open = [-1]
        self._count = 0

    def call(self, name: str, gid, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self._count
        self._count += 1
        parent = self._open[-1]
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((index, name, start, end, parent, gid))


def _cpu_seconds() -> float:
    # this process plus every child it has reaped, e.g. pool workers
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _replay(tracer: Tracer, graphs: list[Graph], stats: dict) -> None:
    """The per-graph calls run_harness makes, one span each."""
    for gid, g in enumerate(graphs):
        # canonical_form caches its answer on the graph, so use a copy
        tracer.call("graphs.canonical_form", gid, canonical_form, Graph(g.n, g.adj))
        if not tracer.call("graphs.is_locatable", gid, is_locatable, g):
            continue
        result = tracer.call("domination.old_number", gid, old_number, g)
        stats["nodes"] += result.nodes_explored
        tracer.call("halfgraphs.is_union_of_half_graphs", gid, is_union_of_half_graphs, g)
        tracer.call("forced.bondy_check", gid, bondy_check, g)
        parts = tracer.call("forced.classify_forced", gid, classify_forced, g)
        full = (1 << g.n) - 1
        for v in iter_bits(parts.unforced):
            tracer.call("domination.is_old_set", gid, is_old_set, g, full & ~(1 << v))


def _sweep(tracer: Tracer, graphs: list[Graph], n: int, jobs: int, stats: dict) -> str:
    cpu = _cpu_seconds()
    report = tracer.call("harness.run_harness", None, run_harness, graphs, n, jobs=jobs)
    stats["harness_cpu_s"] = _cpu_seconds() - cpu
    stats["harness_jobs"] = jobs
    tracer.call("harness.replay", None, _replay, tracer, graphs, stats)
    return report.to_json()


def census(n: int, tracer: Tracer, path: str | None, stats: dict) -> list:
    # list() inside the span: the enumeration is a generator
    graphs = tracer.call(
        "enumeration.enumerate_connected_graphs", None, list, enumerate_connected_graphs(n)
    )
    stats["classes"] = len(graphs)
    return [_sweep(tracer, graphs, n, inputs.CENSUS_JOBS, stats)]


def stream(tracer: Tracer, path: str | None, stats: dict) -> list:
    with open(path, encoding="ascii") as handle:
        records = [line.strip() for line in handle if line.strip()]
    graphs = [
        tracer.call("graph6.parse_graph6", gid, parse_graph6, record)
        for gid, record in enumerate(records)
    ]
    return [_sweep(tracer, graphs, inputs.STREAM_ORDER, inputs.STREAM_JOBS, stats)]


def solve(tracer: Tracer, path: str | None, stats: dict) -> list:
    with open(path, encoding="ascii") as handle:
        records = [line.strip() for line in handle if line.strip()]
    answers = []
    for gid, record in enumerate(records):
        g = tracer.call("graph6.parse_graph6", gid, parse_graph6, record)
        try:
            result = tracer.call("domination.old_number", gid, old_number, g)
        except NotLocatableError:
            continue
        stats["nodes"] += result.nodes_explored
        parts = tracer.call("forced.classify_forced", gid, classify_forced, g)
        answers.append(
            {
                "graph6": record,
                "gamma": result.gamma,
                "witness": vertices_of(result.witness),
                "domination_forced": vertices_of(parts.domination_forced),
                "location_forced": vertices_of(parts.location_forced),
                "unforced": vertices_of(parts.unforced),
            }
        )
    return answers


WORKLOADS = {"solve": solve, "stream": stream}
WORKLOADS.update((name, partial(census, n)) for name, n in inputs.CENSUS_ORDERS.items())


def layer_totals(spans: list[tuple]) -> dict:
    """name -> [total seconds, calls, longest call, its graph id]."""
    totals: dict = defaultdict(lambda: [0.0, 0, 0.0, None])
    for _index, name, start, end, _parent, gid in spans:
        row = totals[name]
        row[0] += end - start
        row[1] += 1
        if end - start > row[2]:
            row[2], row[3] = end - start, gid
    return dict(totals)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--input")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="where --trace 1 writes its spans")
    args = parser.parse_args()

    tracer = Tracer(bool(args.trace))
    stats = {"nodes": 0, "classes": 0, "harness_cpu_s": 0.0, "harness_jobs": 1}
    started = time.perf_counter()
    answers = WORKLOADS[args.workload](tracer, args.input, stats)
    pass_s = time.perf_counter() - started

    spans = sorted(tracer.spans)
    if tracer.enabled:
        with open(args.spans, "w", encoding="ascii") as handle:
            json.dump(
                [[n, s - started, e - started, p, g] for _, n, s, e, p, g in spans], handle
            )
    replay = {span[0] for span in spans if span[1] == "harness.replay"}
    stats["replay_calls_s"] = sum(
        end - start for _, _, start, end, parent, _ in spans if parent in replay
    )
    summary = {
        "pass_s": pass_s,
        "answers": answers,
        "stats": stats,
        "layers": layer_totals(spans),
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
