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

A bad record never stops a run.  One line-numbered reader reads each
input's raw text before any record is handled and hands its records
on one at a time.  Every record is parsed once, with one exception:
verify --stream without --n takes the sweep order from the first
record that parses, so the records up to that one are parsed twice,
once to find it and once in the sweep.  solve and recognize share one
record loop: it prints the error of each record that does not parse,
or that solve finds to admit no OLD set, on stderr and goes on with
the rest, then exits 2 if any record failed to parse, else 3 if any
admits no OLD set.  verify --stream hands the sweep its records
unparsed, and lists bad ones in its report, as record N with blank
lines counted.  A closed stdout (oldset recognize FILE | head -1) ends
the run silently, as it ends cat.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from itertools import chain
from typing import Iterator

from .domination import classify_forced, old_number, old_number_bruteforce
from .enumeration import MAX_BUILTIN_ORDER, enumerate_connected_graphs
from .graph6 import GraphFormatError, parse_graph6, to_graph6
from .graphs import CANONICAL_ORDER_LIMIT, Graph, NotLocatableError, vertices_of
from .halfgraphs import _component_labelings, half_graph
from .harness import run_harness

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


class _Lines:
    """(line number, stripped line) of each nonblank line of an ASCII
    file, or of stdin when path is None; blank lines count in the
    numbers.

    The raw text is read and checked on construction, so a file that
    cannot be opened or is not ASCII raises _InputError, which main
    reports in one line as exit 2, before any record is handled.  Only
    the bytes are kept: each iteration splits and decodes the lines
    anew as they are reached, so every forked sweep worker reads its own.
    """

    def __init__(self, path: str | None):
        try:
            if path is None:
                data = sys.stdin.buffer.read()
            else:
                with open(path, "rb") as handle:
                    data = handle.read()
        except OSError as exc:
            raise _InputError(f"cannot read {path or 'stdin'}: {exc.strerror or exc}")
        if not data.isascii():
            raise _InputError(f"cannot read {path or 'stdin'}: not ASCII text")
        self._data = data

    def __iter__(self) -> Iterator[tuple[int, str]]:
        # newline=None splits lines as a file opened in text mode does
        text = io.TextIOWrapper(io.BytesIO(self._data), encoding="ascii", newline=None)
        return ((i, line) for i, line in enumerate(map(str.strip, text), 1) if line)


def _parse(record: str) -> Graph | GraphFormatError:
    """The graph a record encodes, or the error that it does not parse."""
    try:
        return parse_graph6(record)
    except GraphFormatError as exc:
        return exc


def _parsed_lines(path: str | None) -> Iterator[tuple]:
    """(line number, record, parse) of each line _Lines(path) gives,
    each record parsed as it is reached."""
    return ((i, line, _parse(line)) for i, line in _Lines(path))


def _records(args_graphs: list[str]) -> Iterator[tuple]:
    """Resolve positionals to (line number, record, parse), an inline
    record numbered 0; stdin when none given.  Each file is read and
    checked on the call, so an unreadable one ends the run before any
    output; its records are parsed as the caller reaches them."""
    if not args_graphs:
        return _parsed_lines(None)
    records = []
    for item in args_graphs:
        parsed = _parse(item)
        if isinstance(parsed, GraphFormatError) and os.path.exists(item):
            records.append(_parsed_lines(item))
        else:
            records.append([(0, item, parsed)])
    return chain.from_iterable(records)


def _each_record(args, payload, text) -> int:
    """Print payload(g, record) of every record, as JSON or through text.

    A record that does not parse sets exit 2; one whose payload raises
    NotLocatableError sets exit 3 unless exit 2 is set.  Either error goes
    to stderr, and the remaining records still run.
    """
    render = _dump if args.format == "structured" else text
    status = EXIT_OK
    for _, record, parsed in _records(args.graphs):
        if isinstance(parsed, GraphFormatError):
            print(parsed, file=sys.stderr)
            status = EXIT_PARSE
            continue
        try:
            answer = payload(parsed, record)
        except NotLocatableError as exc:
            print(f"{record}: {exc}", file=sys.stderr)
            status = status or EXIT_NOT_LOCATABLE
            continue
        print(render(answer))
    return status


def _solve_text(answer: dict) -> str:
    lines = [f"{answer['graph6']}: n={answer['n']}, gamma_OL={answer['gamma']}"]
    for key in ("witness", "domination_forced", "location_forced", "unforced"):
        inner = ", ".join(map(str, answer[key]))
        lines.append(f"  {key.replace('_', '-')} = {{{inner}}}")
    lines.append(f"  method = {answer['method']}, nodes = {answer['nodes_explored']}")
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    solver = _SOLVERS[args.solver]

    def payload(g: Graph, record: str) -> dict:
        result = solver(g)
        parts = classify_forced(g)
        return {
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

    return _each_record(args, payload, _solve_text)


def _cmd_gen(args) -> int:
    print(to_graph6(half_graph(args.k)))
    return EXIT_OK


def _recognize_payload(g: Graph, record: str) -> dict:
    components = list(_component_labelings(g))
    labeling = components[0][1] if len(components) == 1 else None
    payload: dict = {"graph6": record, "n": g.n, "connected": len(components) <= 1}
    payload["half_graph"] = labeling is not None
    if labeling is not None:
        payload["k"] = labeling.k
        payload["v_order"] = list(labeling.v_order)
        payload["w_order"] = list(labeling.w_order)
    if not payload["connected"]:
        payload["components"] = []
        for mask, sub in components:
            entry: dict = {"vertices": vertices_of(mask), "half_graph": sub is not None}
            if sub is not None:
                entry["k"] = sub.k
            payload["components"].append(entry)
    payload["union_of_half_graphs"] = all(sub is not None for _, sub in components)
    return payload


def _recognize_text(answer: dict) -> str:
    record = answer["graph6"]
    if answer["half_graph"]:
        return (
            f"{record}: half-graph k={answer['k']}, "
            f"v_order={answer['v_order']}, w_order={answer['w_order']}"
        )
    if answer["connected"]:
        return f"{record}: not a half-graph"
    lines = [f"{record}: disconnected"]
    for entry in answer["components"]:
        verdict = (
            f"half-graph k={entry['k']}" if entry["half_graph"] else "not a half-graph"
        )
        lines.append(f"  component {entry['vertices']}: {verdict}")
    yes = "yes" if answer["union_of_half_graphs"] else "no"
    lines.append(f"  union of half-graphs: {yes}")
    return "\n".join(lines)


def _cmd_recognize(args) -> int:
    return _each_record(args, _recognize_payload, _recognize_text)


def _cmd_verify(args) -> int:
    n = args.n
    if args.stream is None:
        if n is None:
            raise _UsageError("verify needs --n, --stream, or both")
        if not 1 <= n <= MAX_BUILTIN_ORDER:
            raise _UsageError(
                f"built-in enumeration covers 1..{MAX_BUILTIN_ORDER}; "
                "pass --stream for other orders"
            )
        items = enumerate_connected_graphs(n)
    else:
        # (line number, record) pairs, which the sweep parses
        items = _Lines(None if args.stream == "-" else args.stream)
        if n is None:
            # the order of the first record that parses; the records up
            # to it are parsed again by the sweep, and none after it
            n = 0  # none parses, and the sweep reports them all
            for _, record in items:
                first = _parse(record)
                if isinstance(first, Graph):
                    n = first.n
                    break

    report = run_harness(items, n, jobs=args.jobs)
    # an explicit order does not make an empty sweep a success; only a
    # stream can hold no graph, and then its record errors are all
    # parse errors
    if not report.graphs_scanned:
        for error in report.record_errors:
            print(error, file=sys.stderr)
        print("stream contains no parsable records", file=sys.stderr)
        return EXIT_PARSE
    if args.format == "structured":
        print(report.to_json())
    else:
        print(report.to_text())
    if report.violations == 0:
        return EXIT_OK
    return EXIT_VIOLATION


def _build_parser() -> _Parser:
    parser = _Parser(prog="oldset", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    formats = _Parser(add_help=False)
    formats.add_argument("--format", choices=("text", "structured"), default="text")
    records = _Parser(add_help=False)
    records.add_argument(
        "graphs",
        nargs="*",
        help="graph6 records, or files of them (./NAME if NAME is a record)",
    )

    solve = commands.add_parser(
        "solve",
        parents=[records, formats],
        help="exact gamma_OL, witness, and forced partition",
    )
    solve.add_argument(
        "--solver",
        choices=sorted(_SOLVERS),
        default="bnb",
        help="exact algorithm (default bnb)",
    )
    solve.set_defaults(entry=_cmd_solve)

    gen = commands.add_parser("gen", help="emit the half-graph H_k as graph6")
    gen.add_argument("--k", type=_positive, required=True, help="half-graph index")
    gen.set_defaults(entry=_cmd_gen)

    recognize = commands.add_parser(
        "recognize",
        parents=[records, formats],
        help="decide half-graph structure, with labeling",
    )
    recognize.set_defaults(entry=_cmd_recognize)

    verify = commands.add_parser(
        "verify",
        parents=[formats],
        help="run the extremal-characterisation harness",
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
        "--jobs",
        type=_positive,
        default=1,
        help="upper bound on worker processes",
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
    import signal

    # a reader that closes stdout early (| head -1) ends the run the way
    # it ends cat, by SIGPIPE, not with a BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
