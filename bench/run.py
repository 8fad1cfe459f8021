"""Benchmark of the oldset package: census, census7, stream and solve workloads.

Run from the root of a checkout that holds the package source in src/:

    python3 bench/run.py --workload {census,census7,stream,solve} --seed N \\
        --seconds S --trace {0,1}

Each workload is one client in a closed loop: the next oldset process
starts only after the previous one has exited, and none uses more than
two processes.

  census  `oldset verify --n 8 --format structured --jobs 1`, cold, as
          every CLI user runs it: enumeration and canonical forms do most
          of the work, the harness the rest.  The input is fixed.  It is
          left out of BENCHMARK.json: a pass takes 12-25 s on a shared
          two-core host, so a run holds only two or three passes and its
          median follows the host's slow phases (ten-run spread of wall_s
          0.15 and 0.30 in two sets).
  census7 the same sweep at order 7 (853 classes, no extremal graph, as
          no half-graph has odd order): the same enumeration, canonical
          form and harness code in passes of about 1.3 s, so that a run
          holds dozens of passes and reports their median.
  stream  `oldset verify --stream FILE --n 10 --jobs 2 --format structured`
          over 3000 seeded connected order-10 graphs at mixed densities,
          five relabeled H_5 among them: thousands of tiny solves through
          the record reader, canonical forms of unlabeled input and the
          harness process pool.  A change to enumeration alone should
          leave it unchanged.
  solve   `oldset solve --format structured FILE` over 109 locatable
          graphs (G(n, p) for n in 16, 20, 24 and p in 0.15, 0.3; P_n and
          C_n for 8 <= n <= 24; H_k for 2 <= k <= 16) in seeded order.
          Nearly all of the work is the exact solver and its witness pass;
          no enumeration or canonical form runs.  The graphs are fixed so
          that their answers can be stored in expected/solve.json.  Only
          solve reports graph_p50_ms and graph_p90_ms.  It is left out of
          BENCHMARK.json: on a shared two-core host its ten-run spread of
          wall_s stayed above 0.25.

--trace 0 sets the inputs up nine times (setup_s is the median), then
runs the CLI pass after pass, each in a fresh process, for --seconds and
reports end-to-end metrics.  The fixed job in reference.py runs before
the first pass and after every pass; wall_rel is the median over passes
of a pass's wall time divided by the mean of the two reference runs
around it.  The raw medians wall_s and graphs_per_s go to the detail
line only: on a shared host they follow its speed, which drifts by up
to two times over a minute.  --trace 1 times five cold `oldset gen --k 1`
runs and runs the workload in-process twice, untraced and traced (see
inprocess.py), and reports per-layer metrics; a layer the workload never
calls reads 0.

Every answer is checked against the stored expectations and the
benchmark's own oracles in inputs.py.  stdout ends with two JSON lines:
the details (environment, sample counts, fail rate, first failures) and
then the result {"correct", "attempted", "failed", "metrics"}.  The
program exits 2 when the package source is missing and 3 when the CLI
cannot run at all, printing no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected")
REFERENCE = os.path.join(HERE, "reference.py")

SETUP_REPEATS = 9
STARTUP_REPEATS = 5
# every run must be over well within 180 s; a hung child is killed here
RUN_LIMIT_S = 170.0

# order -> (connected classes, as OEIS A001349 counts them, locatable
# classes, extremal graphs), which the stored census report must state
CENSUS_FACTS = {8: (11117, 7442, ["G?CilS"]), 7: (853, 507, [])}
# canonical graph6 of H_5, which every relabeled copy must map to
H5_CERTIFICATE = "I??GhTTig"


class SetupError(Exception):
    """The inputs or the program cannot be set up or run; no result is printed."""


@dataclass
class Inputs:
    """What one workload feeds the CLI and how its answers are judged.

    check takes the workload's answers, a list of report lines for
    verify and a list of per-graph dicts for solve, and returns one
    message per problem.  per_graph marks solve, whose answers arrive
    one line per graph, so a problem spoils one record, not the pass.
    """

    args: list[str]
    path: str | None
    graphs: int
    check: Callable[[list], list[str]]
    per_graph: bool = False


@dataclass
class Pass:
    wall_s: float
    lines: list[str]
    gaps_s: list[float]
    status: int
    rss_mb: float


def run_child(argv: list[str], deadline: float, stderr_path: str) -> Pass:
    """Run one child to exit, stamping each stdout line as it arrives."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    with open(stderr_path, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - started, 1.0), proc.kill)
        killer.start()
        try:
            stamps, lines = [], []
            for raw in proc.stdout:
                stamps.append(time.perf_counter())
                lines.append(raw.decode("ascii", "replace").rstrip("\n"))
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    gaps = [b - a for a, b in zip([started] + stamps, stamps)]
    # ru_maxrss is in KiB on Linux and covers the reaped pool workers too
    return Pass(ended - started, lines, gaps, proc.returncode, usage.ru_maxrss / 1024)


def oldset_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "oldset", *args]


def cli_answers(prepared: Inputs, lines: list[str]) -> list:
    if not prepared.per_graph:
        return lines
    answers = []
    for line in lines:
        try:
            answers.append(json.loads(line))
        except ValueError:
            pass
    return answers


# ---------------------------------------------------------------- checks


def check_census(lines: list[str], expected: str) -> list[str]:
    if lines != [expected]:
        return ["census report differs from the stored expected report"]
    return []


def check_solve(answers: list[dict], corpus, expected: dict) -> list[str]:
    """One message per record whose answer is wrong or missing."""
    by_record = {a.get("graph6"): a for a in answers}
    fields = ("gamma", "witness", "domination_forced", "location_forced", "unforced")
    failures = []
    for record, name, adj in corpus:
        got = by_record.get(record)
        if got is None:
            failures.append(f"{name}: no answer")
            continue
        want = expected[record]
        wrong = [f for f in fields if got.get(f) != want[f]]
        witness = sum(1 << v for v in got.get("witness", ()))
        if not inputs.is_old_set(adj, witness) or witness.bit_count() != got.get("gamma"):
            wrong.append("witness is not an OLD set of size gamma")
        masks = [sum(1 << v for v in got.get(f, ())) for f in fields[2:]]
        if masks != list(inputs.forced_partition(adj)):
            wrong.append("forced partition")
        if name.startswith("H_") and got.get("gamma") != 2 * int(name[2:]):
            wrong.append("gamma(H_k) != 2k")
        if wrong:
            failures.append(f"{name}: {', '.join(wrong)}")
    return failures


def stream_expectations(graphs) -> dict:
    """The report fields a correct sweep of graphs must print."""
    return {
        "n": inputs.STREAM_ORDER,
        "graphs_scanned": len(graphs),
        "locatable_count": sum(map(inputs.is_locatable, graphs)),
        "extremal": [H5_CERTIFICATE] * sum(map(inputs.is_half_graph, graphs)),
        "theorem_holds": True,
        "counterexamples": [],
        "bondy_violations": [],
        "prop2_violations": [],
        "record_errors": [],
    }


def check_stream(lines: list[str], want: dict) -> list[str]:
    if len(lines) != 1:
        return [f"stream printed {len(lines)} lines, want 1 report"]
    try:
        report = json.loads(lines[0])
    except ValueError:
        return ["stream report is not JSON"]
    return [
        f"stream report {key}: got {report.get(key)!r}, want {value!r}"
        for key, value in want.items()
        if report.get(key) != value
    ]


# ----------------------------------------------------------------- setup


def load_expected(name: str):
    with open(os.path.join(EXPECTED, name), encoding="ascii") as handle:
        return json.load(handle)


def census_expected(n: int) -> str:
    """The stored report line, after checking it states the census facts."""
    name = f"census_n{n}.json"
    with open(os.path.join(EXPECTED, name), encoding="ascii") as handle:
        line = handle.read().rstrip("\n")
    report = json.loads(line)
    classes, locatable, extremal = CENSUS_FACTS[n]
    want = {
        "n": n,
        "graphs_scanned": classes,
        "locatable_count": locatable,
        "extremal": extremal,
        "theorem_holds": True,
        "counterexamples": [],
        "bondy_violations": [],
        "prop2_violations": [],
    }
    if any(report.get(key) != value for key, value in want.items()):
        raise SetupError(f"expected/{name} does not state the census facts")
    return line


def write_records(path: str, records) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(record + "\n" for record in records)


def prepare(workload: str, seed: int, workdir: str) -> Inputs:
    """Generate and write the workload's inputs and load its expectations."""
    inputs.self_check()
    if workload in inputs.CENSUS_ORDERS:
        n = inputs.CENSUS_ORDERS[workload]
        expected_line = census_expected(n)
        return Inputs(
            ["verify", "--n", str(n), "--format", "structured", "--jobs", str(inputs.CENSUS_JOBS)],
            None,
            CENSUS_FACTS[n][0],
            lambda lines: check_census(lines, expected_line),
        )
    if workload == "solve":
        corpus = inputs.solve_corpus(seed)
        expected = load_expected("solve.json")
        missing = [name for record, name, _ in corpus if record not in expected]
        if missing:
            raise SetupError(f"no stored answer for {missing[:3]}")
        path = os.path.join(workdir, "solve.g6")
        write_records(path, (record for record, _, _ in corpus))
        return Inputs(
            ["solve", "--format", "structured", path],
            path,
            len(corpus),
            lambda answers: check_solve(answers, corpus, expected),
            per_graph=True,
        )
    graphs = inputs.stream_graphs(seed)
    want = stream_expectations(graphs)
    path = os.path.join(workdir, "stream.g6")
    write_records(path, map(inputs.graph6, graphs))
    return Inputs(
        ["verify", "--stream", path, "--n", str(inputs.STREAM_ORDER)]
        + ["--jobs", str(inputs.STREAM_JOBS), "--format", "structured"],
        path,
        len(graphs),
        lambda lines: check_stream(lines, want),
    )


def startup_pass(deadline: float, workdir: str) -> Pass:
    return run_child(
        oldset_argv(["gen", "--k", "1"]), deadline, os.path.join(workdir, "stderr.txt")
    )


def setup(workload: str, seed: int, workdir: str, deadline: float) -> Inputs:
    """Prepare the inputs, then start the CLI once to prove that it runs."""
    prepared = prepare(workload, seed, workdir)
    probe = startup_pass(deadline, workdir)
    if probe.status != 0 or probe.lines != [inputs.graph6(inputs.half_graph(1))]:
        raise SetupError(f"`oldset gen --k 1` failed with status {probe.status}")
    return prepared


# --------------------------------------------------------------- metrics


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def latency_metrics(passes: list[Pass]) -> tuple[dict, int]:
    """graph_p50_ms and graph_p90_ms of solve, with their sample count.

    A graph's latency is the gap between the output line carrying its
    answer and the line (or the process start) before it.  Each
    percentile is taken over the graphs of one pass, and the median over
    passes is reported.
    """
    metrics = {
        f"graph_p{q}_ms": (
            statistics.median(percentile(p.gaps_s, q / 100) for p in passes) * 1e3,
            "ms",
        )
        for q in (50, 90)
    }
    return metrics, sum(len(p.gaps_s) for p in passes)


def relative_walls(passes: list[Pass], references: list[float]) -> list[float]:
    """Each pass's wall time over the mean of the reference runs around it."""
    return [
        p.wall_s * 2 / (before + after)
        for p, before, after in zip(passes, references[:-1], references[1:], strict=True)
    ]


@dataclass
class Tally:
    """Records attempted and failed, and the first reasons for failing."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, prepared: Inputs, problems: list[str], status: int) -> None:
        self.attempted += prepared.graphs
        if status != 0:
            problems = [f"exit status {status}"] + problems
        if not problems:
            return
        self.failures.extend(problems)
        # a bad exit, or a wrong verify report, spoils every record of the pass
        whole = status != 0 or not prepared.per_graph
        self.failed += prepared.graphs if whole else len(problems)


def reference_pass(deadline: float, workdir: str) -> float:
    p = run_child([sys.executable, REFERENCE], deadline, os.path.join(workdir, "stderr.txt"))
    if p.status != 0:
        raise SetupError(f"reference.py failed with status {p.status}")
    return p.wall_s


def end_to_end(workload: str, seed: int, seconds: float, workdir: str, deadline: float):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        prepared = setup(workload, seed, workdir, deadline)
        setup_times.append(time.perf_counter() - started)

    passes: list[Pass] = []
    tally = Tally()
    started = time.perf_counter()
    references = [reference_pass(deadline, workdir)]
    while True:
        p = run_child(
            oldset_argv(prepared.args), deadline, os.path.join(workdir, "stderr.txt")
        )
        references.append(reference_pass(deadline, workdir))
        passes.append(p)
        tally.add(prepared, prepared.check(cli_answers(prepared, p.lines)), p.status)
        # start another pass while at least half of a typical one fits
        typical = (time.perf_counter() - started) / len(passes)
        now = time.perf_counter()
        if now - started + typical / 2 > seconds or now + typical > deadline:
            break

    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_rel": (statistics.median(relative_walls(passes, references)), "ratio"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    samples = {name: len(passes) for name in metrics}
    samples["setup_s"] = len(setup_times)
    # verify prints one report per pass, so only solve has per-graph latencies
    if prepared.per_graph and all(p.gaps_s for p in passes):
        latency, latency_samples = latency_metrics(passes)
        metrics.update(latency)
        samples.update(dict.fromkeys(latency, latency_samples))
    extra = {
        "wall_s": wall,
        "graphs_per_s": prepared.graphs / wall,
        "pass_wall_s": [p.wall_s for p in passes],
        "reference_s": references,
    }
    return metrics, samples, tally, extra


def run_inprocess(workload: str, path: str | None, trace: int, workdir: str, deadline: float):
    argv = [sys.executable, os.path.join(HERE, "inprocess.py"), "--workload", workload]
    argv += ["--trace", str(trace), "--spans", os.path.join(workdir, "spans.json")]
    if path:
        argv += ["--input", path]
    p = run_child(argv, deadline, os.path.join(workdir, "stderr.txt"))
    try:
        summary = json.loads(p.lines[-1])
    except (IndexError, ValueError):
        summary = None
    return p, summary


def per_layer(workload: str, seed: int, workdir: str, deadline: float):
    prepared = setup(workload, seed, workdir, deadline)
    startups = [startup_pass(deadline, workdir).wall_s for _ in range(STARTUP_REPEATS)]
    tally = Tally()
    summaries = []
    for trace in (0, 1):
        p, summary = run_inprocess(workload, prepared.path, trace, workdir, deadline)
        if summary is None:
            raise SetupError(f"in-process pass (trace {trace}) exit status {p.status}")
        tally.add(prepared, prepared.check(summary["answers"]), p.status)
        summaries.append(summary)
    untraced, traced = summaries
    layers, stats = traced["layers"], traced["stats"]

    def total(name: str) -> float:
        return layers.get(name, [0.0])[0]

    def calls(name: str) -> int:
        return layers.get(name, [0.0, 0])[1]

    canon_s, canon_n = total("graphs.canonical_form"), calls("graphs.canonical_form")
    solve_s = total("domination.old_number")
    run_s = total("harness.run_harness")
    slowest = layers.get("domination.old_number", [0.0, 0, 0.0, None])
    metrics = {
        "enumeration.enumerate_s": (total("enumeration.enumerate_connected_graphs"), "s"),
        "enumeration.classes": (stats["classes"], "count"),
        "graphs.canonical_form_s": (canon_s, "s"),
        "graphs.canonical_form_calls": (canon_n, "count"),
        "graphs.canonical_form_us": (canon_s / canon_n * 1e6 if canon_n else 0.0, "us"),
        "domination.old_number_s": (solve_s, "s"),
        "domination.old_number_calls": (calls("domination.old_number"), "count"),
        "domination.nodes": (stats["nodes"], "count"),
        "domination.nodes_per_s": (stats["nodes"] / solve_s if solve_s else 0.0, "1/s"),
        "domination.max_s": (slowest[2], "s"),
        "forced.classify_s": (total("forced.classify_forced"), "s"),
        "forced.classify_calls": (calls("forced.classify_forced"), "count"),
        "halfgraphs.recognize_s": (total("halfgraphs.is_union_of_half_graphs"), "s"),
        "graph6.parse_s": (total("graph6.parse_graph6"), "s"),
        "graph6.parse_calls": (calls("graph6.parse_graph6"), "count"),
        "harness.run_s": (run_s, "s"),
        # the replay runs serially what the harness spread over its jobs
        "harness.self_s": (run_s - stats["replay_calls_s"] / stats["harness_jobs"], "s"),
        "harness.cpu_util": (stats["harness_cpu_s"] / run_s if run_s else 0.0, "ratio"),
        "cli.startup_s": (statistics.median(startups), "s"),
        "trace.overhead_s": (traced["pass_s"] - untraced["pass_s"], "s"),
    }
    samples = {name: 1 for name in metrics}
    samples["cli.startup_s"] = len(startups)
    extra = {
        "slowest_solve_graph": slowest[3],
        "untraced_pass_s": untraced["pass_s"],
        "traced_pass_s": traced["pass_s"],
        "spans": os.path.relpath(os.path.join(workdir, "spans.json"), ROOT),
    }
    return metrics, samples, tally, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = (*inputs.CENSUS_ORDERS, "stream", "solve")
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }
    if not os.path.isfile(os.path.join(SRC, "oldset", "cli.py")):
        print(f"bench: no oldset package source under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, workdir, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir, deadline)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    metrics, samples, tally, extra = result

    fail_rate = tally.failed / tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:30} {value:14.6g} {unit:6} n={samples[name]}", file=sys.stderr)
    print(f"{'fail_rate':30} {fail_rate:14.6g} {'ratio':6} n={tally.attempted}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "samples": samples,
        "fail_rate": fail_rate,
        "failures": tally.failures[:10],
        **extra,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result_line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
