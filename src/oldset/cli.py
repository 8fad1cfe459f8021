"""Command-line front end.

Four subcommands: solve computes gamma_OL and the forced partition of
one or more graphs, gen emits a half-graph, recognize tests the
half-graph structure, verify sweeps an order exhaustively (or a stream)
through the theorem harness.  Graphs travel as graph6 records.  A
positional that parses as a record is that record; any other is read
line by line as a file when one of that name exists (so ./A_ reads the
file A_), else reported as a bad record.  None at all means stdin.

Exit codes: 0 success (for verify: theorem holds, no violations),
1 usage error, 2 unreadable input, 3 graph admits no OLD set,
4 the sweep found a violation.

A bad record never stops a run.  solve and recognize print the error
for each unparsable record on stderr and go on with the rest, then exit
2 if any record failed to parse, else 3 if any solve input admits no
OLD set; verify --stream lists such records in its report.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Iterable

from .domination import classify_forced, old_number, old_number_bruteforce
from .enumeration import MAX_BUILTIN_ORDER, enumerate_connected_graphs
from .graph6 import GraphFormatError, parse_graph6, to_graph6
from .graphs import (
    CANONICAL_ORDER_LIMIT,
    Graph,
    NotLocatableError,
    connected_components,
    is_connected,
    vertices_of,
)
from .halfgraphs import half_graph, is_half_graph, is_union_of_half_graphs
from .harness import _CHUNK, run_harness

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_LOCATABLE = 3
EXIT_VIOLATION = 4

_SOLVERS = {"bnb": old_number, "bruteforce": old_number_bruteforce}


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # unreadable graph input, so usage problems become exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _set(mask_vertices: Iterable[int]) -> str:
    inner = ", ".join(str(v) for v in mask_vertices)
    return "{" + inner + "}"


def _read_lines(path: str | None) -> list[str]:
    """Stripped lines of an ASCII file, or of stdin when path is None.

    A file that cannot be opened or decoded raises _InputError, which
    main reports in one line as exit 2.
    """
    try:
        if path is None:
            text = sys.stdin.buffer.read().decode("ascii")
            # newline=None splits lines as a file opened in text mode does
            return [line.strip() for line in io.StringIO(text, newline=None)]
        with open(path, encoding="ascii") as handle:
            return [line.strip() for line in handle]
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError:
        reason = "not ASCII text"
    raise _InputError(f"cannot read {path or 'stdin'}: {reason}")


def _records(args_graphs: list[str]) -> list[str]:
    """Resolve positionals to graph6 records; stdin when none given."""
    if not args_graphs:
        return [line for line in _read_lines(None) if line]
    records = []
    for item in args_graphs:
        try:
            parse_graph6(item)
        except GraphFormatError:
            if os.path.exists(item):
                records.extend(line for line in _read_lines(item) if line)
                continue
        records.append(item)
    return records


def _cmd_solve(args) -> int:
    solver = _SOLVERS[args.solver]
    bad_record = unlocatable = False
    for record in _records(args.graphs):
        try:
            g = parse_graph6(record)
        except GraphFormatError as exc:
            print(exc, file=sys.stderr)
            bad_record = True
            continue
        try:
            result = solver(g)
        except NotLocatableError as exc:
            print(f"{record}: {exc}", file=sys.stderr)
            unlocatable = True
            continue
        parts = classify_forced(g)
        if args.format == "structured":
            print(
                _dump(
                    {
                        "graph6": record,
                        "n": g.n,
                        "gamma": result.gamma,
                        "witness": vertices_of(result.witness),
                        "domination_forced": vertices_of(parts.domination_forced),
                        "location_forced": vertices_of(parts.location_forced),
                        "unforced": vertices_of(parts.unforced),
                        "method": result.method,
                        "nodes_explored": result.nodes_explored,
                    }
                )
            )
        else:
            print(f"{record}: n={g.n}, gamma_OL={result.gamma}")
            print(f"  witness = {_set(vertices_of(result.witness))}")
            print(f"  domination-forced = {_set(vertices_of(parts.domination_forced))}")
            print(f"  location-forced = {_set(vertices_of(parts.location_forced))}")
            print(f"  unforced = {_set(vertices_of(parts.unforced))}")
            print(f"  method = {result.method}, nodes = {result.nodes_explored}")
    if bad_record:
        return EXIT_PARSE
    return EXIT_NOT_LOCATABLE if unlocatable else EXIT_OK


def _cmd_gen(args) -> int:
    print(to_graph6(half_graph(args.k)))
    return EXIT_OK


def _recognize_payload(g: Graph, record: str) -> dict:
    payload: dict = {"graph6": record, "n": g.n, "connected": is_connected(g)}
    labeling = is_half_graph(g)
    payload["half_graph"] = labeling is not None
    if labeling is not None:
        payload["k"] = labeling.k
        payload["v_order"] = list(labeling.v_order)
        payload["w_order"] = list(labeling.w_order)
    if not payload["connected"]:
        payload["components"] = []
        for component, kept in connected_components(g):
            sub = is_half_graph(component)
            entry: dict = {
                "vertices": list(kept),
                "half_graph": sub is not None,
            }
            if sub is not None:
                entry["k"] = sub.k
            payload["components"].append(entry)
    payload["union_of_half_graphs"] = is_union_of_half_graphs(g)
    return payload


def _cmd_recognize(args) -> int:
    status = EXIT_OK
    for record in _records(args.graphs):
        try:
            g = parse_graph6(record)
        except GraphFormatError as exc:
            print(exc, file=sys.stderr)
            status = EXIT_PARSE
            continue
        payload = _recognize_payload(g, record)
        if args.format == "structured":
            print(_dump(payload))
            continue
        if payload["half_graph"]:
            print(
                f"{record}: half-graph k={payload['k']}, "
                f"v_order={payload['v_order']}, w_order={payload['w_order']}"
            )
        elif payload["connected"]:
            print(f"{record}: not a half-graph")
        else:
            print(f"{record}: disconnected")
            for entry in payload["components"]:
                verdict = (
                    f"half-graph k={entry['k']}"
                    if entry["half_graph"]
                    else "not a half-graph"
                )
                print(f"  component {entry['vertices']}: {verdict}")
            yes = "yes" if payload["union_of_half_graphs"] else "no"
            print(f"  union of half-graphs: {yes}")
    return status


def _cmd_verify(args) -> int:
    record_errors: list[str] = []
    if args.stream is None:
        if args.n is None:
            raise _UsageError("verify needs --n, --stream, or both")
        if not 1 <= args.n <= MAX_BUILTIN_ORDER:
            raise _UsageError(
                f"built-in enumeration covers 1..{MAX_BUILTIN_ORDER}; "
                "pass --stream for other orders"
            )
        graphs = list(enumerate_connected_graphs(args.n))
        n = args.n
    else:
        lines = _read_lines(None if args.stream == "-" else args.stream)
        graphs = []
        for index, line in enumerate(lines, start=1):
            if not line:
                continue
            try:
                graphs.append(parse_graph6(line))
            except GraphFormatError as exc:
                record_errors.append(f"record {index}: {exc}")
        # an explicit order does not make an empty sweep a success
        if not graphs:
            for error in record_errors:
                print(error, file=sys.stderr)
            print("stream contains no parsable records", file=sys.stderr)
            return EXIT_PARSE
        n = graphs[0].n if args.n is None else args.n

    report = run_harness(graphs, n, jobs=args.jobs, record_errors=record_errors)
    if args.format == "structured":
        print(report.to_json())
    else:
        print(report.to_text())
    if report.violations == 0:
        return EXIT_OK
    return EXIT_VIOLATION


_GRAPHS_HELP = "graph6 records, or files of them (./NAME if NAME is a record)"


def _build_parser() -> _Parser:
    parser = _Parser(prog="oldset", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="exact gamma_OL, witness, and forced partition"
    )
    solve.add_argument("graphs", nargs="*", help=_GRAPHS_HELP)
    solve.add_argument(
        "--solver",
        choices=sorted(_SOLVERS),
        default="bnb",
        help="exact algorithm (default bnb)",
    )
    solve.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    solve.set_defaults(entry=_cmd_solve)

    gen = commands.add_parser("gen", help="emit the half-graph H_k as graph6")
    gen.add_argument("--k", type=_positive, required=True, help="half-graph index")
    gen.set_defaults(entry=_cmd_gen)

    recognize = commands.add_parser(
        "recognize", help="decide half-graph structure, with labeling"
    )
    recognize.add_argument("graphs", nargs="*", help=_GRAPHS_HELP)
    recognize.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    recognize.set_defaults(entry=_cmd_recognize)

    verify = commands.add_parser(
        "verify", help="run the extremal-characterisation harness"
    )
    verify.add_argument(
        "--n", type=_positive, help="sweep all connected graphs of this order"
    )
    verify.add_argument(
        "--stream",
        help="file of graph6 records to sweep instead ('-' for stdin); a "
        f"report names a graph of order above {CANONICAL_ORDER_LIMIT} by its "
        "input graph6, not a canonical form",
    )
    verify.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    verify.add_argument(
        "--jobs",
        type=_positive,
        default=1,
        help="upper bound on worker processes, capped at the CPU count and "
        f"at one per chunk of {_CHUNK} graphs, so a sweep of one chunk "
        "never forks",
    )
    verify.set_defaults(entry=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.entry(args)
    except _UsageError as exc:
        print(f"oldset: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"oldset: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    sys.exit(main())
