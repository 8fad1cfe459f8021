"""Exhaustive verification of the extremal characterisation.

The headline claim: a connected locatable graph has gamma_OL equal to
its order exactly when it is a half-graph.  The harness makes one sweep
over a stream of graphs, and every locatable graph gets the same three
checks.  It is solved exactly and recognised structurally, and any
disagreement with the theorem is recorded.  One forced-vertex analysis
of the graph then serves two side checks: the location-forced count
never reaches n (Bondy), and dropping any unforced vertex still leaves
an OLD set (the removability guarantee).

Reports are deterministic: per-graph findings are keyed and sorted by
canonical certificate, so any relabeling or reordering of the input
stream, and any worker count, produces the identical report.  The
structured rendering omits wall-clock time for the same reason.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .domination import SolveResult, old_number, old_number_bruteforce
from .forced import classify_forced
from .graph6 import to_graph6
from .graphs import (
    CANONICAL_ORDER_LIMIT,
    Graph,
    canonical_form,
    is_locatable,
    is_old_set,
    iter_bits,
)
from .halfgraphs import is_union_of_half_graphs

__all__ = ["HarnessReport", "run_harness"]

_SOLVERS = {"bnb": old_number, "bruteforce": old_number_bruteforce}


@dataclass
class HarnessReport:
    """Everything one sweep established.

    extremal lists the canonical graph6 of each locatable graph with
    gamma_OL = n; counterexamples pair a canonical graph6 with (gamma,
    half-graph verdict) whenever the two sides of the theorem disagree.
    bondy_violations and prop2_violations are analogous, and empty on
    every input if the mathematics is right.  record_errors carries
    per-record parse or order problems without aborting the sweep.
    """

    n: int
    graphs_scanned: int = 0
    locatable_count: int = 0
    extremal: list[str] = field(default_factory=list)
    theorem_holds: bool = True
    counterexamples: list[tuple[str, int, bool]] = field(default_factory=list)
    bondy_violations: list[tuple[str, int]] = field(default_factory=list)
    prop2_violations: list[tuple[str, int]] = field(default_factory=list)
    record_errors: list[str] = field(default_factory=list)
    timing: float = 0.0

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

    cert: str
    order: int
    locatable: bool
    gamma: int
    half_graph: bool
    bondy_count: int
    prop2_bad: tuple[int, ...]


def _examine(g: Graph, solve: Callable[[Graph], SolveResult]) -> _Row:
    # beyond the canonicalization limit fall back to the raw encoding;
    # such streams must already be isomorph-free for determinism
    if g.n <= CANONICAL_ORDER_LIMIT:
        cert = canonical_form(g).decode("ascii")
    else:
        cert = to_graph6(g)
    if not is_locatable(g):
        return _Row(cert, g.n, False, 0, False, 0, ())
    parts = classify_forced(g)
    full = (1 << g.n) - 1
    return _Row(
        cert,
        g.n,
        True,
        solve(g).gamma,
        # on the connected streams the harness is specified for this is
        # exactly the half-graph test; it extends to disconnected input
        # through the additivity of gamma_OL over components
        is_union_of_half_graphs(g),
        # the location-forced count, as bondy_check computes it
        parts.location_forced.bit_count(),
        tuple(
            v
            for v in iter_bits(parts.unforced)
            if not is_old_set(g, full & ~(1 << v))
        ),
    )


def run_harness(
    graphs: Iterable[Graph],
    n: int,
    solver: str = "bnb",
    jobs: int = 1,
    record_errors: Sequence[str] = (),
) -> HarnessReport:
    """Sweep graphs and aggregate one deterministic report.

    Every locatable graph gets all three checks: the theorem (its exact
    gamma_OL, computed by the solver named in solver, against half-graph
    recognition), the Bondy bound and the removability of each unforced
    vertex.  The forced partition behind the last two is computed once
    per graph.  jobs > 1 fans the per-graph work out to a process pool
    of at most min(jobs, CPU count, chunks of work) workers, which
    cannot change the report.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    started = time.perf_counter()
    batch = list(graphs)
    work = partial(_examine, solve=_SOLVERS[solver])
    # the pool forks every worker on its first task, so never ask for
    # more than there are cores, or chunks to hand out
    workers = min(jobs, os.cpu_count() or 1)
    chunk = max(1, len(batch) // (workers * 8))
    workers = min(workers, -(-len(batch) // chunk))
    if workers <= 1:
        rows = [work(g) for g in batch]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(work, batch, chunksize=chunk))

    report = HarnessReport(n=n, record_errors=list(record_errors))
    rows.sort(key=lambda row: row.cert)
    for row in rows:
        report.graphs_scanned += 1
        if row.order != n:
            report.record_errors.append(
                f"{row.cert}: order differs from sweep order {n}"
            )
        if not row.locatable:
            continue
        report.locatable_count += 1
        extremal = row.gamma == row.order
        if extremal:
            report.extremal.append(row.cert)
        if extremal != row.half_graph:
            report.counterexamples.append((row.cert, row.gamma, row.half_graph))
        if row.bondy_count > max(row.order - 1, 0):
            report.bondy_violations.append((row.cert, row.bondy_count))
        report.prop2_violations.extend((row.cert, v) for v in row.prop2_bad)
    report.theorem_holds = not report.counterexamples
    report.timing = time.perf_counter() - started
    return report
