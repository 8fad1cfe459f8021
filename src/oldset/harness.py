"""Exhaustive verification of the extremal characterisation.

The headline claim: a connected locatable graph has gamma_OL equal to
its order exactly when it is a half-graph.  The harness makes one sweep
over a stream of graphs, and every locatable graph gets the same three
checks from one forced-vertex analysis: the theorem, the Bondy bound
(the location-forced count never reaches n) and the removability of
each unforced vertex (V - v is still an OLD set).

Extremality is settled by the removal witnesses, not by a search.
Supersets of OLD sets are OLD sets and a forced vertex can never be
dropped, so gamma_OL = n exactly when no unforced v leaves V - v an
OLD set, which the removability check tests anyway.  The exact solver
runs only on graphs that either side of the theorem calls extremal (no
removal witness, or a union of half-graphs), and such a graph is a
counterexample unless the certificate, gamma = n and the half-graph
test all agree: a wrong solver or forced-vertex analysis still fails.

Removability is decided for every unforced vertex in one pass over the
rows (_unremovable), not by one OLD-set test per vertex.  The pass
shares no code with classify_forced and does not use its adjacent-degree
rule, so a wrong classification still shows: a forced vertex called
unforced is flagged, and a removable vertex called forced hides a
witness, which the exact solve then contradicts.

Reports are deterministic: findings are keyed and sorted by canonical
certificate, ties by input index, so any relabeling or reordering of
the input stream, and any worker count, produces the identical report.
The structured rendering omits wall-clock time for the same reason.
Only the graphs the report names are canonicalised: those with a
finding (an order mismatch, an extremal or exactly solved graph, a
violation).  The labeling search is exponential and would otherwise run
on every input graph to key rows that are then dropped.

The sweep works in units.  A census that enumerate_connected_graphs
returns is split into the subtrees below its classes of order 7
(enumeration._SPLIT_ORDER), so beyond order 7 no worker walks the whole
census; any other input is pulled in chunks of _CHUNK items as the
sweep goes.  For a census an item is a graph of the enumeration; for a
stream it is a (record number, graph6 record) pair, which the sweep
parses, examines and drops.  Each unit returns its counts, its parse
errors and only its named rows, folded in unit order.  More than one
job is an upper bound, not a promise of workers: a sweep forks only
when it has more than one unit, a rule on the input alone (a census of
order 8 or more, or a re-iterable input of more than one chunk; an
iterator is swept in process), so one input always takes the same path.
The workers are forked once the input is ready, this process being
worker 0, and worker r sweeps the units whose index is r mod the worker
count.  Each goes through every unit (see _share) and holds one chunk
at a time past the first W + 1, peeked at to count them.  A forked
worker inherits a census's units, and an input that the peek read to
its end; it iterates any other input afresh.  Only rows come back over
the pipes, never a graph.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from .domination import classify_forced, old_number
from .enumeration import _Census
from .graph6 import GraphFormatError, parse_graph6, to_graph6
from .graphs import (
    CANONICAL_ORDER_LIMIT,
    Graph,
    _degree_classes,
    _locatable_rows,
    canonical_form,
    iter_bits,
)
from .halfgraphs import is_union_of_half_graphs

__all__ = ["HarnessReport", "run_harness"]

# Items per unit of work of an input that is not a census: graphs, or
# records of a stream (a record that does not parse counts too).  On two
# cores forking costs about 5 ms and a stream record about 16 us to
# examine, so a stream of at most one chunk runs in process: split, 600
# and 1,000 records took 4-5 ms longer.  1,500 splits the 3,000-record
# stream evenly, and two workers took it from 111 to 96 ms
_CHUNK = 1500


class HarnessReport:
    """Everything one sweep established.

    extremal lists the canonical graph6 of each locatable graph with
    gamma_OL = n, that is, with no removable vertex; counterexamples
    pair a canonical graph6 with (gamma, half-graph verdict) whenever
    the certificate, the exact gamma and the half-graph test disagree.
    bondy_violations and prop2_violations are analogous, and empty on
    every input if the mathematics is right.  record_errors carries
    per-record parse or order problems without aborting the sweep: the
    parse errors in input order, then the order mismatches.  Every
    other list, and the mismatches, are in certificate order, ties in
    input order; graphs that appear in no list are counted but never
    canonicalised.
    """

    def __init__(self, n: int):
        self.n = n
        self.graphs_scanned = 0
        self.locatable_count = 0
        self.extremal: list[str] = []
        self.counterexamples: list[tuple[str, int, bool]] = []
        self.bondy_violations: list[tuple[str, int]] = []
        self.prop2_violations: list[tuple[str, int]] = []
        self.record_errors: list[str] = []
        self.timing = 0.0

    @property
    def theorem_holds(self) -> bool:
        return not self.counterexamples

    @property
    def violations(self) -> int:
        return (
            len(self.counterexamples)
            + len(self.bondy_violations)
            + len(self.prop2_violations)
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "graphs_scanned": self.graphs_scanned,
            "locatable_count": self.locatable_count,
            "extremal": list(self.extremal),
            "theorem_holds": self.theorem_holds,
            "counterexamples": [list(row) for row in self.counterexamples],
            "bondy_violations": [list(row) for row in self.bondy_violations],
            "prop2_violations": [list(row) for row in self.prop2_violations],
            "record_errors": list(self.record_errors),
        }

    def to_json(self) -> str:
        # timing omitted so identical sweeps render identical bytes
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"order {self.n}: {self.graphs_scanned} graphs scanned, "
            f"{self.locatable_count} locatable",
            f"extremal classes (gamma_OL = n): {len(self.extremal)}",
        ]
        lines.extend(f"  {cert}" for cert in self.extremal)
        lines.append(f"theorem holds: {'yes' if self.theorem_holds else 'NO'}")
        for cert, gamma, looks in self.counterexamples:
            lines.append(
                f"  counterexample {cert}: gamma_OL={gamma}, "
                f"half-graph={'yes' if looks else 'no'}"
            )
        lines.append(
            "bondy bound: "
            + ("ok" if not self.bondy_violations else "VIOLATED")
        )
        for cert, count in self.bondy_violations:
            lines.append(f"  {cert}: {count} location-forced vertices")
        lines.append(
            "unforced removability: "
            + ("ok" if not self.prop2_violations else "VIOLATED")
        )
        for cert, v in self.prop2_violations:
            lines.append(f"  {cert}: removing unforced {v} breaks the OLD set")
        for err in self.record_errors:
            lines.append(f"record error: {err}")
        lines.append(f"elapsed: {self.timing:.2f}s")
        return "\n".join(lines)


class _Row(NamedTuple):
    """What one graph contributes to the report, the same for every graph."""

    order: int
    locatable: bool
    extremal: bool
    gamma: int | None  # solved only when extremal or half_graph
    half_graph: bool
    bondy_bad: int  # the location-forced count when it reaches n, else 0
    prop2_bad: tuple[int, ...]


def _cert(g: Graph) -> str:
    # beyond the canonicalization limit fall back to the raw encoding;
    # such streams must already be isomorph-free for determinism
    if g.n <= CANONICAL_ORDER_LIMIT:
        return canonical_form(g).decode("ascii")
    return to_graph6(g)


def _unremovable(g: Graph, candidates: int, rows: set[int]) -> int:
    """The vertices v of candidates for which V - v is not an OLD set.

    Only for a locatable g, where V itself is an OLD set: its traces
    are the rows N(w), all nonzero and all distinct, and rows is their
    set.  Dropping v changes only the rows through v, each to N(w) - v,
    and leaves every other row as it was.  So V - v fails exactly when
    such a row becomes empty (N(w) = {v}) or equal to another row
    (N(w) ^ {v} is a row; that row misses v, so it is unchanged).  One
    pass over the rows decides this for every candidate at once.  It
    reads only g's rows, never the forced-vertex analysis whose
    candidates it checks, nor the degrees that analysis groups by.
    """
    bad = 0
    for row in g.adj:
        through = row & candidates
        while through:
            bit = through & -through
            if row == bit or row ^ bit in rows:
                bad |= bit
            through ^= bit
    return bad


def _examine(g: Graph) -> _Row:
    # the row set and the degree classes are worked out once per graph:
    # locatability and the removability pass read the rows, the
    # forced-vertex analysis and the half-graph gate the classes
    rows = _locatable_rows(g)
    if rows is None:
        return _Row(g.n, False, False, None, False, 0, ())
    classes = _degree_classes(g)
    parts = classify_forced(g, classes)
    bad = _unremovable(g, parts.unforced, rows)
    prop2_bad = tuple(iter_bits(bad))
    # every unforced vertex outside bad is a removal witness
    extremal = bad == parts.unforced
    # on the connected streams the harness is specified for this is
    # exactly the half-graph test; it extends to disconnected input
    # through the additivity of gamma_OL over components
    half = is_union_of_half_graphs(g, classes)
    gamma = old_number(g).gamma if extremal or half else None
    bondy = parts.location_forced.bit_count()  # as bondy_check counts
    bondy_bad = bondy if bondy > max(g.n - 1, 0) else 0
    return _Row(g.n, True, extremal, gamma, half, bondy_bad, prop2_bad)


def _chunks(items: Iterable) -> Iterator[list]:
    """Lists of the next _CHUNK items of items, pulled as they are asked for."""
    items = iter(items)
    return iter(lambda: list(islice(items, _CHUNK)), [])


def _sweep(
    n: int, unit: int, items: Iterable[Graph | tuple[int, str]]
) -> tuple[int, int, list[str], list[tuple[str, tuple[int, int], _Row]]]:
    """Examine the items of unit, the unit-th unit of the input.

    An item is a graph, or a (record number, graph6 record) pair that
    is parsed here, its graph examined and dropped.  Returns the number
    of graphs examined, the number of locatable ones, the error of each
    record that does not parse, in input order, and (certificate, input
    index, row) for each graph the report names.  The input index is
    (unit, position in unit), so input indices sort in input order.
    """
    scanned = locatable = 0
    errors = []
    named = []
    # taken _CHUNK items at a time: walking part of a census subtree and
    # then examining it is faster than interleaving the two (the order-7
    # census went 33.5 to 31 ms), and a chunk is all that is held
    for index, item in enumerate(chain.from_iterable(_chunks(items))):
        if isinstance(item, Graph):
            g = item
        else:
            try:
                g = parse_graph6(item[1])
            except GraphFormatError as exc:
                errors.append(f"record {item[0]}: {exc}")
                continue
        scanned += 1
        row = _examine(g)
        locatable += row.locatable
        if row.order != n or row.gamma is not None or row.bondy_bad or row.prop2_bad:
            named.append((_cert(g), (unit, index), row))
    return scanned, locatable, errors, named


def _share(units: Iterable[Iterable], n: int, r: int, w: int) -> list[tuple[int, tuple]]:
    """(i, _sweep of unit i) for each unit i of units with i = r mod w.

    Every worker of a sweep goes through all the units, in order, and
    passes over the other workers' units without examining them: a
    chunk of records is split off the input but not parsed, a census
    subtree is not walked.
    """
    return [(i, _sweep(n, i, unit)) for i, unit in enumerate(units) if i % w == r]


def _forked(
    units: Iterable[Iterable], n: int, w: int, again: Iterable | None
) -> list[tuple[int, tuple]]:
    """_share(units, n, r, w) for r = 0..w-1, in one list.

    This process is worker 0, and each other worker is a child forked
    once the input is ready (see _child), which sends its results back
    pickled, over a pipe.  A child that raises, or that dies, makes
    this raise once the children have ended.
    """
    # only a sweep that forks imports these, and before the fork, so
    # that no child imports pickle again
    import pickle  # noqa: F401
    import signal

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()  # else a child could write the buffered text again
    children = []
    try:
        for r in range(1, w):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(units, n, r, w, write, again)
            os.close(write)
            children.append((r, pid, read))
        swept = _share(units, n, 0, w)
        while children:
            swept += _reap(*children.pop(0))
        return swept
    finally:
        # only when this process raised: stop the children it leaves
        for _, pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(
    units: Iterable, n: int, r: int, w: int, write: int, again: Iterable | None
) -> None:
    """Worker r's life in a forked child: sweep its share of units as
    inherited or, given again, of its own iteration of again; send the
    results (or the traceback of what it raised) through write, exit."""
    status = 1
    try:
        try:
            if again is not None:
                units = _chunks(again)
            payload = (True, _share(units, n, r, w))
        except BaseException:
            import traceback

            payload = (False, traceback.format_exc())
        import pickle

        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _reap(r: int, pid: int, read: int) -> list[tuple[int, tuple]]:
    """What forked worker r sent over read, once it has ended."""
    import pickle

    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"sweep worker {r} ended with wait status {status}")
    ok, payload = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"sweep worker {r} raised:\n{payload}")
    return payload


def run_harness(
    graphs: Iterable[Graph] | Iterable[tuple[int, str]],
    n: int,
    jobs: int = 1,
) -> HarnessReport:
    """Sweep graphs and aggregate one deterministic report.

    graphs holds graphs, or (record number, graph6 record) pairs with
    distinct numbers in increasing order, which the sweep parses; a
    record that does not parse is not scanned, and adds "record N:
    reason" to the report's record errors, in input order and ahead of
    the order mismatches.  The checks, and which graphs are solved and
    canonicalised, are the module docstring's.

    jobs > 1 allows min(jobs, CPU count, units) workers where os.fork
    exists, dealt the units as the module docstring says.  A forked
    worker may iterate graphs afresh, so only a census or a re-iterable
    graphs (iter(graphs) is not graphs), such as a list or the CLI's
    reader, is shared out; an iterator is swept in this process.  The
    path cannot change the report.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    started = time.perf_counter()
    cap = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if isinstance(graphs, _Census):
        units = graphs._units()
        workers = min(cap, len(units))
        again = None  # forked workers inherit the units
    else:
        items = iter(graphs)
        if items is graphs:
            # an iterator, which forked workers would all pull
            cap = 1
        chunks = _chunks(items)
        # never more workers than chunks: peek at up to cap of them, and if
        # cap > 1 one more, as forked workers inherit an input peeked whole;
        # reversed so that each is popped, and freed, as a worker passes it
        peeked = list(islice(chunks, cap + (cap > 1)))[::-1]
        workers = min(cap, len(peeked))
        again = graphs if len(peeked) > workers else None
        units = chain((peeked.pop() for _ in range(len(peeked))), chunks)
    if workers > 1:
        swept = sorted(_forked(units, n, workers, again))
    else:
        swept = _share(units, n, 0, 1)

    report = HarnessReport(n)
    named = []
    for _, (scanned, locatable, errors, rows) in swept:
        report.graphs_scanned += scanned
        report.locatable_count += locatable
        report.record_errors.extend(errors)
        named.extend(rows)
    # input indices are distinct, so the sort never compares two rows
    named.sort()
    for cert, _, row in named:
        if row.order != n:
            report.record_errors.append(f"{cert}: order differs from sweep order {n}")
        if row.extremal:
            report.extremal.append(cert)
        if row.gamma is not None and not (
            row.extremal == (row.gamma == row.order) == row.half_graph
        ):
            report.counterexamples.append((cert, row.gamma, row.half_graph))
        if row.bondy_bad:
            report.bondy_violations.append((cert, row.bondy_bad))
        report.prop2_violations.extend((cert, v) for v in row.prop2_bad)
    report.timing = time.perf_counter() - started
    return report
