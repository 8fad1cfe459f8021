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
rows, not by one OLD-set test per vertex.  V is an OLD set, so dropping
v breaks it exactly when some row N(w) through v is {v} or differs from
another row in v alone.  The pass reads only g's rows and the unforced
mask it is asked about; it shares no code with classify_forced, whose
location-forced vertices come from a scan of row pairs.  So a wrong
classification still shows: a forced vertex called unforced is flagged,
and a removable vertex called forced hides a witness, which the exact
solve then contradicts.

Reports are deterministic: findings are keyed and sorted by canonical
certificate, so any relabeling or reordering of the input stream, and
any worker count, produces the identical report.  Only the graphs the
report names are canonicalised: those with a finding (an order
mismatch, an extremal or exactly solved graph, a violation).  The
labeling search is exponential and would otherwise run on every input
graph to key rows that are then dropped.  The order does not change:
the rows come back in input order, and a stable sort of the named rows
lists them exactly as sorting every row and then keeping the named
ones would, ties between isomorphic copies included.  The structured
rendering omits wall-clock time for the same reason.

More than one job is an upper bound, not a promise of a pool.  Most
graphs cost far less to examine than a process pool costs to start, so
the sweep examines graphs in process first and forks only when the rest
of the batch, at the rate seen so far, would take well over the pool's
start-up.  The rows keep input order either way.
"""

from __future__ import annotations

import json
import os
import time
from typing import Iterable, NamedTuple, Sequence

from .domination import classify_forced, old_number
from .graph6 import to_graph6
from .graphs import (
    CANONICAL_ORDER_LIMIT,
    Graph,
    canonical_form,
    is_locatable,
    iter_bits,
)
from .halfgraphs import is_union_of_half_graphs

__all__ = ["HarnessReport", "run_harness"]

# A pool costs 70-100 ms to start on two cores and a cheap graph well
# under 0.1 ms to examine, so a sweep first examines graphs in process
# for _PROBE_S and forks only for a rest projected to take _POOL_PAYS_S.
_PROBE_S = 0.05
_POOL_PAYS_S = 0.5


class HarnessReport:
    """Everything one sweep established.

    extremal lists the canonical graph6 of each locatable graph with
    gamma_OL = n, that is, with no removable vertex; counterexamples
    pair a canonical graph6 with (gamma, half-graph verdict) whenever
    the certificate, the exact gamma and the half-graph test disagree.
    bondy_violations and prop2_violations are analogous, and empty on
    every input if the mathematics is right.  record_errors carries
    per-record parse or order problems without aborting the sweep.
    Every list after the caller's record errors is in certificate order,
    ties in input order; graphs that appear in no list are counted but
    never canonicalised.
    """

    def __init__(self, n: int, record_errors: Iterable[str] = ()):
        self.n = n
        self.graphs_scanned = 0
        self.locatable_count = 0
        self.extremal: list[str] = []
        self.counterexamples: list[tuple[str, int, bool]] = []
        self.bondy_violations: list[tuple[str, int]] = []
        self.prop2_violations: list[tuple[str, int]] = []
        self.record_errors = list(record_errors)
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


def _unremovable(g: Graph, candidates: int) -> int:
    """The vertices v of candidates for which V - v is not an OLD set.

    Only for a locatable g, where V itself is an OLD set: its traces
    are the rows N(w), all nonzero and all distinct.  Dropping v changes
    only the rows through v, each to N(w) - v, and leaves every other
    row as it was.  So V - v fails exactly when such a row becomes empty
    (N(w) = {v}) or equal to another row (N(w) ^ {v} is a row; that row
    misses v, so it is unchanged).  One pass over the rows decides this
    for every candidate at once.  It reads only g's rows, never the
    forced-vertex analysis whose candidates it checks.
    """
    rows = set(g.adj)
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
    if not is_locatable(g):
        return _Row(g.n, False, False, None, False, 0, ())
    parts = classify_forced(g)
    bad = _unremovable(g, parts.unforced)
    prop2_bad = tuple(iter_bits(bad))
    # every unforced vertex outside bad is a removal witness
    extremal = bad == parts.unforced
    # on the connected streams the harness is specified for this is
    # exactly the half-graph test; it extends to disconnected input
    # through the additivity of gamma_OL over components
    half = is_union_of_half_graphs(g)
    gamma = old_number(g).gamma if extremal or half else None
    bondy = parts.location_forced.bit_count()  # as bondy_check counts
    bondy_bad = bondy if bondy > max(g.n - 1, 0) else 0
    return _Row(g.n, True, extremal, gamma, half, bondy_bad, prop2_bad)


def _probe_then_pool(batch: list[Graph], workers: int) -> list[_Row]:
    """Rows of batch in order; the rest goes to a pool only if it pays."""
    rows = []
    started = time.perf_counter()
    for g in batch:
        rows.append(_examine(g))
        if time.perf_counter() - started >= _PROBE_S:
            break
    rest = batch[len(rows):]
    projected = (time.perf_counter() - started) / max(len(rows), 1) * len(rest)
    # the pool forks every worker on its first task, so never ask for
    # more than there are cores, or chunks to hand out
    chunk = max(1, len(rest) // (workers * 8))
    workers = min(workers, -(-len(rest) // chunk))
    if workers <= 1 or projected < _POOL_PAYS_S:
        rows.extend(_examine(g) for g in rest)
        return rows
    # imported here: a sweep that never forks should not pay for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        rows.extend(pool.map(_examine, rest, chunksize=chunk))
    return rows


def run_harness(
    graphs: Iterable[Graph],
    n: int,
    jobs: int = 1,
    record_errors: Sequence[str] = (),
) -> HarnessReport:
    """Sweep graphs and aggregate one deterministic report.

    Every locatable graph gets all three checks from one forced-vertex
    analysis.  A graph is extremal exactly when no unforced v leaves
    V - v an OLD set: supersets of OLD sets are OLD sets and a forced
    vertex can never be dropped.  Only graphs that this certificate or
    half-graph recognition calls extremal are solved exactly, and only
    graphs that land in a report list get a canonical certificate.
    jobs > 1 allows a process pool of at most min(jobs, CPU count,
    chunks of work) workers.  The sweep examines graphs in process for
    a short probe and hands the rest to a pool only when the rest,
    at the rate the probe saw, projects to well over the cost of
    starting one; otherwise it finishes in process.  The decision
    cannot change the report.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    started = time.perf_counter()
    batch = list(graphs)
    rows = _probe_then_pool(batch, min(jobs, os.cpu_count() or 1))

    report = HarnessReport(n, record_errors)
    report.graphs_scanned = len(rows)
    report.locatable_count = sum(row.locatable for row in rows)
    # pool.map keeps rows in batch order, so the stable sort below puts
    # the named rows in the order a sort of every row would
    named = [
        (_cert(g), row)
        for g, row in zip(batch, rows)
        if row.order != n or row.gamma is not None or row.bondy_bad or row.prop2_bad
    ]
    named.sort(key=lambda pair: pair[0])
    for cert, row in named:
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
